package bitsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/seqverify"
	"repro/internal/sim"
)

// randTestNetwork builds a random sequential network: nPI inputs, nLatch
// registers (random init incl. X), nNode logic nodes over random fanins
// drawn from everything defined so far, latch drivers and POs picked from
// the logic nodes. Covers include the shapes Compile lowers specially:
// empty covers, universal and void cubes, and cubes and covers of 5 to 8
// terms.
func randTestNetwork(r *rand.Rand, nPI, nLatch, nNode int) *network.Network {
	n := network.New(fmt.Sprintf("rnd%d", r.Intn(1<<30)))
	var sources []*network.Node
	for i := 0; i < nPI; i++ {
		sources = append(sources, n.AddPI(fmt.Sprintf("i%d", i)))
	}
	var latches []*network.Latch
	for i := 0; i < nLatch; i++ {
		init := []network.Value{network.V0, network.V1, network.VX}[r.Intn(3)]
		l := n.AddLatch(fmt.Sprintf("s%d", i), nil, init)
		latches = append(latches, l)
		sources = append(sources, l.Output)
	}
	var nodes []*network.Node
	for i := 0; i < nNode; i++ {
		k := 1 + r.Intn(3)
		if r.Intn(4) == 0 {
			k = 5 + r.Intn(4) // wide cubes: AND chains of 4 to 7 ops
		}
		if k > len(sources) {
			k = len(sources)
		}
		fanins := make([]*network.Node, 0, k)
		seen := map[*network.Node]bool{}
		for len(fanins) < k {
			c := sources[r.Intn(len(sources))]
			if !seen[c] {
				seen[c] = true
				fanins = append(fanins, c)
			}
		}
		f := logic.NewCover(len(fanins))
		nCubes := 1 + r.Intn(3)
		switch r.Intn(6) {
		case 0:
			nCubes = 0 // the empty cover: constant 0
		case 1:
			nCubes = 5 + r.Intn(4)
		}
		for c := 0; c < nCubes; c++ {
			cube := logic.NewCube(len(fanins))
			kind := r.Intn(10)
			if kind != 0 { // kind 0 leaves the universal cube: constant 1
				for v := 0; v < len(fanins); v++ {
					switch r.Intn(3) {
					case 0:
						cube.SetLit(v, logic.LitNeg)
					case 1:
						cube.SetLit(v, logic.LitPos)
					}
				}
			}
			if kind == 1 {
				cube.SetLit(r.Intn(len(fanins)), logic.LitNone) // a void cube
			}
			f.Cubes = append(f.Cubes, cube) // Add would drop a void cube
		}
		v := n.AddLogic(fmt.Sprintf("g%d", i), fanins, f)
		nodes = append(nodes, v)
		sources = append(sources, v)
	}
	pick := func() *network.Node { return nodes[r.Intn(len(nodes))] }
	for _, l := range latches {
		l.Driver = pick()
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		n.AddPO(fmt.Sprintf("o%d", i), pick())
	}
	return n
}

func valOf(one, zero uint64, lane int) network.Value {
	switch {
	case one>>uint(lane)&1 == 1:
		return network.V1
	case zero>>uint(lane)&1 == 1:
		return network.V0
	default:
		return network.VX
	}
}

// TestPropertyBitsimMatchesScalar pins the packed engine against the
// scalar 3-valued simulator bit-for-bit: random networks, random initial
// states (including X), random PI patterns (including X), every lane,
// every PO, every latch, every cycle.
func TestPropertyBitsimMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := randTestNetwork(r, 1+r.Intn(8), r.Intn(4), 1+r.Intn(12))
		bs, err := bitsim.Compile(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const lanes = bitsim.LanesPerWord
		scalars := make([]*sim.Simulator, lanes)
		for l := range scalars {
			s, err := sim.New(n)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			scalars[l] = s
		}
		b := bs.NewBlock()
		bs.Reset(b)
		// Random per-lane initial state, mirrored into both simulators.
		for i := range n.Latches {
			var one, zero uint64
			st := make([]network.Value, lanes)
			for l := 0; l < lanes; l++ {
				switch r.Intn(3) {
				case 0:
					zero |= uint64(1) << uint(l)
					st[l] = network.V0
				case 1:
					one |= uint64(1) << uint(l)
					st[l] = network.V1
				default:
					st[l] = network.VX
				}
			}
			bs.SetLatch(b, i, one, zero)
			for l, s := range scalars {
				v := s.State()
				v[i] = st[l]
				s.SetState(v)
			}
		}
		piOne := make([]uint64, len(n.PIs))
		piZero := make([]uint64, len(n.PIs))
		for cycle := 0; cycle < 10; cycle++ {
			piVals := make([]map[*network.Node]network.Value, lanes)
			for l := range piVals {
				piVals[l] = map[*network.Node]network.Value{}
			}
			for i, p := range n.PIs {
				piOne[i], piZero[i] = 0, 0
				for l := 0; l < lanes; l++ {
					switch r.Intn(3) {
					case 0:
						piZero[i] |= uint64(1) << uint(l)
						piVals[l][p] = network.V0
					case 1:
						piOne[i] |= uint64(1) << uint(l)
						piVals[l][p] = network.V1
					default:
						piVals[l][p] = network.VX
					}
				}
			}
			bs.Step(b, piOne, piZero)
			for l, s := range scalars {
				out := s.Step3(piVals[l])
				for i, p := range n.POs {
					one, zero := bs.PO(b, i)
					if got, want := valOf(one, zero, l), out[p.Name]; got != want {
						t.Fatalf("trial %d cycle %d lane %d PO %s: bitsim=%v scalar=%v",
							trial, cycle, l, p.Name, got, want)
					}
				}
				st := s.State()
				for i := range n.Latches {
					one, zero := bs.Latch(b, i)
					if got, want := valOf(one, zero, l), st[i]; got != want {
						t.Fatalf("trial %d cycle %d lane %d latch %d: bitsim=%v scalar=%v",
							trial, cycle, l, i, got, want)
					}
				}
			}
		}
	}
}

// buildToggle returns a pair of 2-bit enabled counters; when corrupt is
// true the second machine's carry is damaged (AND became OR), which any
// random sweep separates quickly.
func buildToggle(corrupt bool) (*network.Network, *network.Network) {
	build := func(name string, bad bool) *network.Network {
		n := network.New(name)
		en := n.AddPI("en")
		l0 := n.AddLatch("s0", nil, network.V0)
		l1 := n.AddLatch("s1", nil, network.V0)
		carryF := logic.MustParseCover(2, "11")
		if bad {
			carryF = logic.MustParseCover(2, "1-", "-1")
		}
		c := n.AddLogic("c", []*network.Node{en, l0.Output}, carryF)
		d0 := n.AddLogic("d0", []*network.Node{en, l0.Output},
			logic.MustParseCover(2, "10", "01"))
		d1 := n.AddLogic("d1", []*network.Node{c, l1.Output},
			logic.MustParseCover(2, "10", "01"))
		l0.Driver = d0
		l1.Driver = d1
		n.AddPO("y", d1)
		return n
	}
	return build("a", false), build("b", corrupt)
}

// oracleVerdict is RandomEquivalent's expected result, assembled from the
// scalar oracle run once per lane on that lane's input bits: the earliest
// divergence in (cycle, PO, stream) order, or "<nil>".
func oracleVerdict(t *testing.T, a, b *network.Network, delay, cycles int, seed int64) string {
	t.Helper()
	best, bestPO, bestLane := -1, 0, 0
	for l := 0; l < bitsim.LanesPerWord; l++ {
		c, po, err := sim.FirstDivergence(a, b, delay, cycles, bitsim.LaneBits(seed, l))
		if err != nil {
			t.Fatal(err)
		}
		if c >= 0 && (best < 0 || c < best || (c == best && po < bestPO)) {
			best, bestPO, bestLane = c, po, l
		}
	}
	if best < 0 {
		return "<nil>"
	}
	return fmt.Sprintf("sim: PO %q differs at cycle %d on stream %d (after %d-cycle prefix)",
		a.POs[bestPO].Name, best, bestLane, delay)
}

// TestRandomEquivalentMatchesScalarFirstDivergence pins the batched check
// against the scalar oracle fed each lane's input bits: the same first
// (cycle, stream, PO), for a corrupted counter over a range of seeds and
// delayed-replacement prefixes, and for random networks with X initial
// states against a copy with one node complemented.
func TestRandomEquivalentMatchesScalarFirstDivergence(t *testing.T) {
	check := func(name string, a, b *network.Network, delay, cycles int, seed int64) string {
		want := oracleVerdict(t, a, b, delay, cycles, seed)
		got := fmt.Sprint(bitsim.RandomEquivalent(a, b, delay, cycles, seed, bitsim.Options{}))
		if got != want {
			t.Fatalf("%s seed %d delay %d: bitsim %s, oracle %s", name, seed, delay, got, want)
		}
		return got
	}
	a, b := buildToggle(true)
	for _, delay := range []int{0, 3} {
		for seed := int64(1); seed <= 5; seed++ {
			if check("toggle", a, b, delay, 200, seed) == "<nil>" {
				t.Fatalf("seed %d delay %d: corrupted pair passed", seed, delay)
			}
		}
	}
	a, b = buildToggle(false)
	for seed := int64(1); seed <= 3; seed++ {
		if err := bitsim.RandomEquivalent(a, b, 0, 200, seed, bitsim.Options{}); err != nil {
			t.Fatalf("equivalent pair rejected: %v", err)
		}
	}
	r := rand.New(rand.NewSource(29))
	differ := 0
	for trial := 0; trial < 30; trial++ {
		a := randTestNetwork(r, 1+r.Intn(6), 1+r.Intn(4), 2+r.Intn(10))
		b := a.Clone()
		var logicNodes []*network.Node
		for _, v := range b.Nodes() {
			if v.Kind == network.KindLogic {
				logicNodes = append(logicNodes, v)
			}
		}
		v := logicNodes[r.Intn(len(logicNodes))]
		b.SetFunction(v, v.Fanins, v.Func.Complement())
		if check(fmt.Sprintf("trial %d", trial), a, b, trial%3, 12, int64(trial)) != "<nil>" {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no random pair diverged: the comparison is vacuous")
	}
}

// xMachine returns a machine whose PO is g = i AND s, or NOT g when
// invert is set, with s fed back from g and powering up at init. With an
// unknown init, a lane whose first input bit is 1 sees X at the PO in
// cycle 0 and keeps it while its input stays 1; a lane whose first bit is
// 0 is defined from cycle 0 on.
func xMachine(init network.Value, invert bool) *network.Network {
	n := network.New("x")
	pi := n.AddPI("i")
	l := n.AddLatch("s", nil, init)
	g := n.AddLogic("g", []*network.Node{pi, l.Output}, logic.MustParseCover(2, "11"))
	l.Driver = g
	out := logic.MustParseCover(1, "1")
	if invert {
		out = logic.MustParseCover(1, "0")
	}
	n.AddPO("y", n.AddLogic("y", []*network.Node{g}, out))
	return n
}

// TestRandomEquivalentXIsNeverAMismatch: an X reaching a PO neither
// panics nor counts as a mismatch on any lane, against an X or against a
// defined value, while a defined difference on the same machines is still
// caught, on the first lane that has one.
func TestRandomEquivalentXIsNeverAMismatch(t *testing.T) {
	a := xMachine(network.VX, false)
	for seed := int64(1); seed <= 4; seed++ {
		for _, b := range []*network.Network{a.Clone(), xMachine(network.V0, false)} {
			if err := bitsim.RandomEquivalent(a, b, 0, 50, seed, bitsim.Options{}); err != nil {
				t.Fatalf("seed %d: X at a PO counted as a mismatch: %v", seed, err)
			}
		}
		lane, xLanes := -1, 0
		for l := 0; l < bitsim.LanesPerWord; l++ {
			if bitsim.LaneBits(seed, l)() {
				xLanes++
			} else if lane < 0 {
				lane = l
			}
		}
		if xLanes == 0 || lane < 0 {
			t.Fatalf("seed %d: want lanes of both kinds, got %d X lanes", seed, xLanes)
		}
		want := fmt.Sprintf(`sim: PO "y" differs at cycle 0 on stream %d (after 0-cycle prefix)`, lane)
		err := bitsim.RandomEquivalent(a, xMachine(network.VX, true), 0, 50, seed, bitsim.Options{})
		if got := fmt.Sprint(err); got != want {
			t.Fatalf("seed %d: got %s, want %s", seed, got, want)
		}
	}
}

// wideAndPair returns a machine whose PO is g OR its one-cycle-delayed
// copy, where g is the AND of the PIs in sel, and a corrupted twin whose g
// is constant 0. The two differ only on the rare vectors that set every
// PI of sel, so the first mismatch usually falls on a stream other than 0.
func wideAndPair(nPI int, sel []int) (*network.Network, *network.Network) {
	build := func(name string, bad bool) *network.Network {
		n := network.New(name)
		pis := make([]*network.Node, nPI)
		for i := range pis {
			pis[i] = n.AddPI(fmt.Sprintf("i%d", i))
		}
		fan := make([]*network.Node, len(sel))
		cube := make([]byte, len(sel))
		for k, i := range sel {
			fan[k] = pis[i]
			cube[k] = '1'
		}
		f := logic.MustParseCover(len(sel), string(cube))
		if bad {
			f = logic.NewCover(len(sel))
		}
		l := n.AddLatch("s", nil, network.V0)
		g := n.AddLogic("g", fan, f)
		h := n.AddLogic("h", []*network.Node{g, l.Output}, logic.MustParseCover(2, "1-", "-1"))
		l.Driver = g
		n.AddPO("y", h)
		return n
	}
	return build("a", false), build("b", true)
}

// TestRandomEquivalentGolden pins the verdicts of corrupted pairs whose
// first mismatch lies on streams above 0, including PIs past the first 64.
// Every string was recorded before the transpose packing replaced per-bit
// packing, so the input vectors of every stream are pinned.
func TestRandomEquivalentGolden(t *testing.T) {
	const d = `sim: PO "y" differs at cycle %d on stream %d (after 1-cycle prefix)`
	for _, tc := range []struct {
		nPI  int
		seed int64
		want string
	}{
		{9, 1, fmt.Sprintf(d, 2, 15)},
		{9, 2, fmt.Sprintf(d, 1, 7)},
		{9, 3, fmt.Sprintf(d, 6, 45)},
		{9, 4, fmt.Sprintf(d, 5, 13)},
		{70, 1, fmt.Sprintf(d, 1, 42)},
		{70, 2, fmt.Sprintf(d, 1, 1)},
		{70, 3, fmt.Sprintf(d, 3, 29)},
		{70, 4, fmt.Sprintf(d, 1, 40)},
		{130, 1, "<nil>"},
		{130, 2, "<nil>"},
		{130, 3, fmt.Sprintf(d, 3, 6)},
		{130, 4, fmt.Sprintf(d, 1, 54)},
	} {
		sel := map[int][]int{
			9:   {0, 1, 2, 3, 4, 5, 6, 7},
			70:  {60, 62, 63, 64, 65, 66, 68, 69},
			130: {3, 64, 70, 100, 127, 128, 129, 1},
		}[tc.nPI]
		a, b := wideAndPair(tc.nPI, sel)
		err := bitsim.RandomEquivalent(a, b, 1, 6, tc.seed, bitsim.Options{})
		if got := fmt.Sprint(err); got != tc.want {
			t.Errorf("nPI %d seed %d: got %q, want %q", tc.nPI, tc.seed, got, tc.want)
		}
	}
}

// TestRandomEquivalentPairsPIsByName: a copy whose PIs are declared in
// the other order is the same machine. PIs pair by name, as in
// seqverify.Equivalent, in the batched check and in the scalar oracle.
func TestRandomEquivalentPairsPIsByName(t *testing.T) {
	build := func(names ...string) *network.Network {
		n := network.New("p")
		pis := map[string]*network.Node{}
		for _, name := range names {
			pis[name] = n.AddPI(name)
		}
		l := n.AddLatch("s", nil, network.V0)
		g := n.AddLogic("g", []*network.Node{pis["x"], pis["y"]}, logic.MustParseCover(2, "10"))
		h := n.AddLogic("h", []*network.Node{g, l.Output}, logic.MustParseCover(2, "10", "01"))
		l.Driver = h
		n.AddPO("o", h)
		return n
	}
	a, b := build("x", "y"), build("y", "x")
	if err := seqverify.Equivalent(context.Background(), a, b, seqverify.Options{}, nil); err != nil {
		t.Fatalf("seqverify: %v", err)
	}
	if c, po, err := sim.FirstDivergence(a, b, 0, 200, bitsim.LaneBits(1, 0)); err != nil || c >= 0 {
		t.Fatalf("scalar oracle: PO %d differs at cycle %d, err %v", po, c, err)
	}
	if err := bitsim.RandomEquivalent(a, b, 0, 200, 1, bitsim.Options{}); err != nil {
		t.Fatal(err)
	}
}
