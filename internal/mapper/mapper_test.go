package mapper

import (
	"context"
	"errors"
	"testing"

	"repro/internal/aig"
	"repro/internal/algebraic"
	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/seqverify"
	"repro/internal/sim"
	"repro/internal/timing"
)

func subjectAndInv(t *testing.T) *network.Network {
	t.Helper()
	// y = NOT(a AND b) as INV(AND2): mapper should find nand2 via the
	// 2-node cut.
	n := network.New("na")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLogic("g", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	h := n.AddLogic("h", []*network.Node{g}, logic.MustParseCover(1, "0"))
	n.AddPO("y", h)
	return n
}

func TestMapFindsComplexGate(t *testing.T) {
	n := subjectAndInv(t)
	lib := genlib.Lib2()
	m, err := MapDelay(context.Background(), n, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.NumLogicNodes() != 1 {
		t.Fatalf("mapped to %d gates, want 1 (nand2)", m.NumLogicNodes())
	}
	var gate string
	for _, v := range m.Nodes() {
		if v.Kind == network.KindLogic {
			gate = v.Gate.GateName()
		}
	}
	if gate != "nand2" {
		t.Fatalf("gate = %s, want nand2", gate)
	}
	if err := bitsim.RandomEquivalent(n, m, 0, 100, 1, bitsim.Options{}); err != nil {
		t.Fatalf("mapping changed function: %v", err)
	}
}

func TestMapAOI(t *testing.T) {
	// (a·b + c)' built from primitives must map into a single aoi21.
	n := network.New("aoi")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	g1 := n.AddLogic("g1", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	g2 := n.AddLogic("g2", []*network.Node{g1, c}, logic.MustParseCover(2, "1-", "-1"))
	g3 := n.AddLogic("g3", []*network.Node{g2}, logic.MustParseCover(1, "0"))
	n.AddPO("y", g3)
	m, err := MapDelay(context.Background(), n, genlib.Lib2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLogicNodes() != 1 {
		t.Fatalf("mapped to %d gates, want 1 (aoi21)", m.NumLogicNodes())
	}
	if err := bitsim.RandomEquivalent(n, m, 0, 100, 2, bitsim.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestMapSequentialPreservesBehaviour(t *testing.T) {
	// 2-bit counter through full optimize + map.
	n := network.New("cnt")
	en := n.AddPI("en")
	l0 := n.AddLatch("s0", nil, network.V0)
	l1 := n.AddLatch("s1", nil, network.V0)
	d0 := n.AddLogic("d0", []*network.Node{l0.Output, en}, logic.MustParseCover(2, "10", "01"))
	t0 := n.AddLogic("t0", []*network.Node{l0.Output, en}, logic.MustParseCover(2, "11"))
	d1 := n.AddLogic("d1", []*network.Node{l1.Output, t0}, logic.MustParseCover(2, "10", "01"))
	cy := n.AddLogic("cy", []*network.Node{l1.Output, l0.Output}, logic.MustParseCover(2, "11"))
	l0.Driver = d0
	l1.Driver = d1
	n.AddPO("carry", cy)
	ref := n.Clone()
	if err := algebraic.OptimizeDelay(context.Background(), n, nil); err != nil {
		t.Fatal(err)
	}
	m, err := MapDelay(context.Background(), n, genlib.Lib2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := seqverify.Equivalent(context.Background(), ref, m, seqverify.Options{}, nil); err != nil {
		t.Fatalf("optimize+map broke the counter: %v", err)
	}
	// All logic must carry gate annotations.
	for _, v := range m.Nodes() {
		if v.Kind == network.KindLogic && v.Gate == nil {
			t.Fatalf("unmapped node %s", v.Name)
		}
	}
	if Area(m, genlib.Lib2()) <= 0 {
		t.Fatal("area must be positive")
	}
}

func TestMapConstants(t *testing.T) {
	n := network.New("konst")
	_ = n.AddPI("a")
	one := n.AddConst("k1", true)
	zero := n.AddConst("k0", false)
	n.AddPO("o1", one)
	n.AddPO("o0", zero)
	m, err := MapDelay(context.Background(), n, genlib.Lib2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(m)
	out := s.StepBits([]bool{false})
	if !out[0] || out[1] {
		t.Fatalf("constants wrong: %v", out)
	}
}

func TestMappedDelayReported(t *testing.T) {
	n := subjectAndInv(t)
	lib := genlib.Lib2()
	m, err := MapDelay(context.Background(), n, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := timing.Period(m)
	if err != nil {
		t.Fatal(err)
	}
	// One nand2: delay ~1.0-1.05.
	if p < 0.9 || p > 1.2 {
		t.Fatalf("mapped period %v out of range for a single nand2", p)
	}
}

func TestMapDeepNetworkEquivalence(t *testing.T) {
	// A random-ish 4-input function through optimize+map.
	n := network.New("deep")
	var pis []*network.Node
	for _, s := range []string{"a", "b", "c", "d"} {
		pis = append(pis, n.AddPI(s))
	}
	f := logic.MustParseCover(4, "110-", "0-11", "1-01", "0110")
	g := n.AddLogic("g", pis, f)
	n.AddPO("y", g)
	ref := n.Clone()
	if err := algebraic.OptimizeDelay(context.Background(), n, nil); err != nil {
		t.Fatal(err)
	}
	m, err := MapDelay(context.Background(), n, genlib.Lib2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check over all 16 input patterns.
	sref, _ := sim.New(ref)
	smap, _ := sim.New(m)
	for mt := 0; mt < 16; mt++ {
		bits := []bool{mt&1 != 0, mt&2 != 0, mt&4 != 0, mt&8 != 0}
		if sref.StepBits(bits)[0] != smap.StepBits(bits)[0] {
			t.Fatalf("mapped function differs at %04b", mt)
		}
	}
}

// referenceConeTT is the map-based evaluator of v's truth table over the
// cut leaves, stopping at every leaf.
func referenceConeTT(v *network.Node, leaves []*network.Node) (uint16, bool) {
	idx := make(map[*network.Node]int, len(leaves))
	for i, l := range leaves {
		idx[l] = i
	}
	proj := [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	memo := make(map[*network.Node]uint16)
	var eval func(x *network.Node) (uint16, bool)
	eval = func(x *network.Node) (uint16, bool) {
		if i, ok := idx[x]; ok {
			return proj[i], true
		}
		if t, ok := memo[x]; ok {
			return t, true
		}
		if x.Kind != network.KindLogic {
			return 0, false
		}
		fanTT := make([]uint16, len(x.Fanins))
		for i, fi := range x.Fanins {
			t, ok := eval(fi)
			if !ok {
				return 0, false
			}
			fanTT[i] = t
		}
		var out uint16
		for _, c := range x.Func.Cubes {
			cube := uint16(0xFFFF)
			for pin := 0; pin < c.N; pin++ {
				switch c.Lit(pin) {
				case logic.LitPos:
					cube &= fanTT[pin]
				case logic.LitNeg:
					cube &= ^fanTT[pin]
				case logic.LitNone:
					cube = 0
				}
			}
			out |= cube
		}
		memo[x] = out
		return out, true
	}
	return eval(v)
}

// checkConeTTs maps n and compares every cut the DP enumerates with the
// reference evaluator.
func checkConeTTs(t *testing.T, n *network.Network) *mapState {
	t.Helper()
	s := newMapState(n, genlib.Lib2())
	if err := s.run(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	enumerated, cuts := s.cutsEnumerated, 0
	for _, v := range order {
		if len(v.Fanins) == 0 {
			continue
		}
		for _, c := range s.enumerate(v) {
			want, ok := referenceConeTT(v, c.leaves[:c.n])
			if !ok || c.tt != want {
				t.Fatalf("%s: cut %v of %s: tt %04x, reference %04x (ok %v)", n.Name, c.key(), v.Name, c.tt, want, ok)
			}
			cuts++
		}
	}
	if cuts != enumerated {
		t.Fatalf("%s: re-enumerated %d cuts, mapping enumerated %d", n.Name, cuts, enumerated)
	}
	return s
}

func TestConeTTStopsAtLeaves(t *testing.T) {
	// y = f0 + f1 with f0 = x', f1 = x·c and x = a·b. The merged cut
	// {a, b, c, x} has leaf x inside f1's cone through {a, b, c}. Stopping
	// at x gives y = x' + x·c = x' + c; composing f1's table over {a, b, c}
	// would give x' + a·b·c instead.
	n := network.New("leafincone")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	x := n.AddLogic("x", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	f0 := n.AddLogic("f0", []*network.Node{x}, logic.MustParseCover(1, "0"))
	f1 := n.AddLogic("f1", []*network.Node{x, c}, logic.MustParseCover(2, "11"))
	y := n.AddLogic("y", []*network.Node{f0, f1}, logic.MustParseCover(2, "1-", "-1"))
	n.AddPO("y", y)
	s := checkConeTTs(t, n)
	// Leaves a, b, c, x are variables 0..3, so x' + c = ^0xFF00 | 0xF0F0.
	const xNotOrC = ^uint16(0xFF00) | 0xF0F0
	want := cutKey{a.ID, b.ID, c.ID, x.ID}
	for _, cu := range s.enumerate(y) {
		if cu.key() == want {
			if cu.tt != xNotOrC {
				t.Fatalf("tt over {a,b,c,x} = %04x, want %04x", cu.tt, xNotOrC)
			}
			return
		}
	}
	t.Fatal("cut {a,b,c,x} not enumerated")
}

func TestConeTTMatchesReferenceOnRegistry(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s1238"} {
		n := buildCircuit(t, name)
		if err := algebraic.OptimizeDelay(context.Background(), n, nil); err != nil {
			t.Fatal(err)
		}
		checkConeTTs(t, n)
	}
}

func TestMapDelayHonoursCancelledContext(t *testing.T) {
	n := aigSubject(t, "s5378")
	if len(n.Nodes()) < 1000 {
		t.Fatalf("subject graph has %d nodes, want at least 1000", len(n.Nodes()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := MapDelay(ctx, n, genlib.Lib2(), nil)
	if !errors.Is(err, guard.ErrBudget) || m != nil {
		t.Fatalf("MapDelay on a cancelled context = %v, %v; want nil and a budget error", m, err)
	}
}

func buildCircuit(tb testing.TB, name string) *network.Network {
	tb.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("no circuit %s", name)
	}
	n, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// aigSubject returns the balanced AIG subject graph of a registry circuit.
func aigSubject(tb testing.TB, name string) *network.Network {
	tb.Helper()
	g, err := aig.FromNetwork(buildCircuit(tb, name))
	if err != nil {
		tb.Fatal(err)
	}
	g.Sweep()
	n, err := g.Balance().ToSubjectNetwork()
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

func BenchmarkMapDelay(b *testing.B) {
	n := aigSubject(b, "s9234")
	lib := genlib.Lib2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := MapDelay(context.Background(), n, lib, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchMapped = m
	}
}

var benchMapped *network.Network
