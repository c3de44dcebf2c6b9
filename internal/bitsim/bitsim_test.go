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

// TestRandomEquivalentMatchesScalarFirstDivergence pins lane-0 parity: the
// batched check must report the exact same first-divergence cycle and
// signal (same error string) as the scalar oracle, for a range of seeds
// and delayed-replacement prefixes.
func TestRandomEquivalentMatchesScalarFirstDivergence(t *testing.T) {
	a, b := buildToggle(true)
	for _, delay := range []int{0, 3} {
		for seed := int64(1); seed <= 5; seed++ {
			want := sim.RandomEquivalentScalar(a, b, delay, 200, seed)
			got := bitsim.RandomEquivalent(a, b, delay, 200, seed, bitsim.Options{})
			if want == nil {
				t.Fatalf("seed %d: scalar oracle unexpectedly passed", seed)
			}
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("seed %d delay %d: bitsim %v, scalar %v", seed, delay, got, want)
			}
		}
	}
	a, b = buildToggle(false)
	for seed := int64(1); seed <= 3; seed++ {
		if err := bitsim.RandomEquivalent(a, b, 0, 200, seed, bitsim.Options{}); err != nil {
			t.Fatalf("equivalent pair rejected: %v", err)
		}
	}
}

// TestRandomEquivalentXPanicParity: an X initial state reaching a PO must
// panic with the scalar's exact message (guard.Tx maps that panic to an
// inconclusive smoke check, so the classification must not drift).
func TestRandomEquivalentXPanicParity(t *testing.T) {
	build := func() *network.Network {
		n := network.New("x")
		pi := n.AddPI("i")
		l := n.AddLatch("s", nil, network.VX)
		g := n.AddLogic("g", []*network.Node{pi, l.Output}, logic.MustParseCover(2, "11"))
		l.Driver = g
		n.AddPO("y", g)
		return n
	}
	a, b := build(), build()
	catch := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	want := catch(func() { _ = sim.RandomEquivalentScalar(a, b, 0, 50, 1) })
	got := catch(func() { _ = bitsim.RandomEquivalent(a, b, 0, 50, 1, bitsim.Options{}) })
	if want == "" {
		t.Fatal("scalar oracle did not panic on X at PO")
	}
	if got != want {
		t.Fatalf("panic mismatch: bitsim %q, scalar %q", got, want)
	}
}

// TestCrossWidthDeterminism: results are byte-identical for -workers 1 vs
// N, with stream counts not divisible by 64 (masked tail words).
func TestCrossWidthDeterminism(t *testing.T) {
	a, b := buildToggle(true)
	for _, streams := range []int{7, 64, 100, 130} {
		var errs []string
		for _, workers := range []int{1, 8} {
			err := bitsim.RandomEquivalent(a, b, 2, 100, 3,
				bitsim.Options{Streams: streams, Workers: workers})
			if err == nil {
				t.Fatalf("streams %d workers %d: corrupted pair passed", streams, workers)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Fatalf("streams %d: workers 1 vs 8 disagree: %q vs %q", streams, errs[0], errs[1])
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
// first mismatch lies on streams above 0, including streams of the second
// and third word block and PIs past the first 64. Every string was
// recorded before the transpose packing replaced per-bit packing, so the
// input vectors of every stream are pinned, not only stream 0's.
func TestRandomEquivalentGolden(t *testing.T) {
	const d = `sim: PO "y" differs at cycle %d on stream %d (after 1-cycle prefix)`
	for _, tc := range []struct {
		nPI, streams int
		seed         int64
		want         string
	}{
		{9, 64, 1, fmt.Sprintf(d, 2, 15)},
		{9, 64, 2, fmt.Sprintf(d, 1, 7)},
		{9, 64, 3, fmt.Sprintf(d, 6, 45)},
		{9, 64, 4, fmt.Sprintf(d, 5, 13)},
		{9, 130, 1, fmt.Sprintf(d, 2, 15)},
		{9, 130, 2, fmt.Sprintf(d, 1, 7)},
		{9, 130, 3, fmt.Sprintf(d, 3, 105)},
		{9, 130, 4, fmt.Sprintf(d, 2, 125)},
		{70, 64, 1, fmt.Sprintf(d, 1, 42)},
		{70, 64, 2, fmt.Sprintf(d, 1, 1)},
		{70, 64, 3, fmt.Sprintf(d, 3, 29)},
		{70, 64, 4, fmt.Sprintf(d, 1, 40)},
		{70, 130, 1, fmt.Sprintf(d, 1, 42)},
		{70, 130, 2, fmt.Sprintf(d, 1, 1)},
		{70, 130, 3, fmt.Sprintf(d, 3, 29)},
		{70, 130, 4, fmt.Sprintf(d, 1, 40)},
		{130, 64, 1, "<nil>"},
		{130, 64, 2, "<nil>"},
		{130, 64, 3, fmt.Sprintf(d, 3, 6)},
		{130, 64, 4, fmt.Sprintf(d, 1, 54)},
		{130, 130, 1, fmt.Sprintf(d, 5, 95)},
		{130, 130, 2, "<nil>"},
		{130, 130, 3, fmt.Sprintf(d, 3, 6)},
		{130, 130, 4, fmt.Sprintf(d, 1, 54)},
	} {
		sel := map[int][]int{
			9:   {0, 1, 2, 3, 4, 5, 6, 7},
			70:  {60, 62, 63, 64, 65, 66, 68, 69},
			130: {3, 64, 70, 100, 127, 128, 129, 1},
		}[tc.nPI]
		a, b := wideAndPair(tc.nPI, sel)
		err := bitsim.RandomEquivalent(a, b, 1, 6, tc.seed, bitsim.Options{Streams: tc.streams})
		if got := fmt.Sprint(err); got != tc.want {
			t.Errorf("nPI %d streams %d seed %d: got %q, want %q", tc.nPI, tc.streams, tc.seed, got, tc.want)
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
	if err := seqverify.Equivalent(context.Background(), a, b, seqverify.Options{}); err != nil {
		t.Fatalf("seqverify: %v", err)
	}
	if err := sim.RandomEquivalentScalar(a, b, 0, 200, 1); err != nil {
		t.Fatalf("scalar oracle: %v", err)
	}
	for _, streams := range []int{64, 130} {
		if err := bitsim.RandomEquivalent(a, b, 0, 200, 1, bitsim.Options{Streams: streams}); err != nil {
			t.Fatalf("streams %d: %v", streams, err)
		}
	}
}
