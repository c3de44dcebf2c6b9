package bitsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sim"
)

// randTestNetwork builds a random sequential network: nPI inputs, nLatch
// registers (random init incl. X), nNode logic nodes over random fanins
// drawn from everything defined so far, latch drivers and POs picked from
// the logic nodes.
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
		for c := 0; c < 1+r.Intn(3); c++ {
			cube := logic.NewCube(len(fanins))
			for v := 0; v < len(fanins); v++ {
				switch r.Intn(3) {
				case 0:
					cube.SetLit(v, logic.LitNeg)
				case 1:
					cube.SetLit(v, logic.LitPos)
				}
			}
			f.Add(cube)
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
	for trial := 0; trial < 40; trial++ {
		n := randTestNetwork(r, 1+r.Intn(4), r.Intn(4), 1+r.Intn(8))
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

	// The toggle counter is XOR-based and never leaves all-X, so use an
	// AND-gated register pair (clearable by r=0) for the sync search.
	n := network.New("clearable")
	r := n.AddPI("r")
	i := n.AddPI("i")
	l0 := n.AddLatch("s0", nil, network.VX)
	l1 := n.AddLatch("s1", nil, network.VX)
	g0 := n.AddLogic("g0", []*network.Node{r, i}, logic.MustParseCover(2, "11"))
	g1 := n.AddLogic("g1", []*network.Node{r, l0.Output}, logic.MustParseCover(2, "11"))
	l0.Driver = g0
	l1.Driver = g1
	n.AddPO("y", g1)
	var seqs [][][]bool
	for _, workers := range []int{1, 8} {
		seq, ok := bitsim.SynchronizingSequence(n, 20, 5,
			bitsim.Options{Streams: 100, Workers: workers})
		if !ok {
			t.Fatalf("workers %d: no synchronizing sequence found", workers)
		}
		seqs = append(seqs, seq)
	}
	if !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Fatalf("sync sequence differs across widths:\n%v\nvs\n%v", seqs[0], seqs[1])
	}
}

// TestSynchronizingSequenceCertificateIsValid replays every returned
// sequence on the scalar simulator: starting from all-X, the final state
// must be fully defined. The bitsim search may pick a different sequence
// than the scalar oracle, but it must always return a true certificate.
func TestSynchronizingSequenceCertificateIsValid(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	found := 0
	for trial := 0; trial < 30; trial++ {
		n := randTestNetwork(r, 1+r.Intn(3), 1+r.Intn(3), 1+r.Intn(6))
		seq, ok := bitsim.SynchronizingSequence(n, 15, int64(trial+1), bitsim.Options{Streams: 64})
		if !ok {
			continue
		}
		found++
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]network.Value, len(n.Latches))
		for i := range x {
			x[i] = network.VX
		}
		s.SetState(x)
		for _, bits := range seq {
			pi := map[*network.Node]network.Value{}
			for i, p := range n.PIs {
				if bits[i] {
					pi[p] = network.V1
				} else {
					pi[p] = network.V0
				}
			}
			s.Step3(pi)
		}
		if !s.AllDefined() {
			t.Fatalf("trial %d: returned sequence does not synchronize", trial)
		}
	}
	if found == 0 {
		t.Fatal("no trial produced a synchronizing sequence; test is vacuous")
	}
}
