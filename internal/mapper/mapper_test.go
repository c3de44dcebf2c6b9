package mapper

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/algebraic"
	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/cut"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
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
			want, ok := referenceConeTT(v, s.leafNodes(&c))
			if !ok || c.tt != want {
				t.Fatalf("%s: cut %v of %s: tt %04x, reference %04x (ok %v)", n.Name, c.leaves[:c.n], v.Name, c.tt, want, ok)
			}
			cuts++
		}
	}
	if cuts != enumerated {
		t.Fatalf("%s: re-enumerated %d cuts, mapping enumerated %d", n.Name, cuts, enumerated)
	}
	return s
}

// leafNodes maps a cut's leaf IDs back to nodes.
func (s *mapState) leafNodes(c *mcut) []*network.Node {
	leaves := make([]*network.Node, c.n)
	for i, id := range c.leaves[:c.n] {
		leaves[i] = s.nodes[id]
	}
	return leaves
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
	want := cut.Leaves{int32(a.ID), int32(b.ID), int32(c.ID), int32(x.ID)}
	for _, cu := range s.enumerate(y) {
		if cu.n == cut.MaxLeaves && cu.leaves == want {
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

// twoInputCovers are the symmetric two-input functions of lib2's gates.
var twoInputCovers = [][]string{
	{"11"}, {"00"}, {"1-", "-1"}, {"0-", "-0"}, {"10", "01"}, {"11", "00"},
}

// randomSubject builds a reconvergent decomposed network of AND/OR/XOR-type
// two-input nodes and inverters. Fanins are mostly drawn from the last few
// nodes, so cones overlap. stride-1 unused primary inputs follow every
// node, so with stride 64 all of its real nodes share one signature bit
// and with strides 63 or 65 the bits wrap within short paths.
func randomSubject(rng *rand.Rand, stride, nLogic int) *network.Network {
	n := network.New(fmt.Sprintf("rand_stride%d", stride))
	pads := 0
	var pool []*network.Node
	add := func(v *network.Node) {
		pool = append(pool, v)
		for i := 1; i < stride; i++ {
			n.AddPI(fmt.Sprintf("pad%d", pads))
			pads++
		}
	}
	for i := 0; i < 6; i++ {
		add(n.AddPI(fmt.Sprintf("x%d", i)))
	}
	pick := func() *network.Node {
		if rng.Intn(4) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return pool[len(pool)-1-rng.Intn(min(6, len(pool)))]
	}
	for i := 0; i < nLogic; i++ {
		name := fmt.Sprintf("g%d", i)
		if rng.Intn(5) == 0 {
			add(n.AddLogic(name, []*network.Node{pick()}, logic.MustParseCover(1, "0")))
			continue
		}
		x, y := pick(), pick()
		for y == x {
			y = pick()
		}
		f := logic.MustParseCover(2, twoInputCovers[rng.Intn(len(twoInputCovers))]...)
		add(n.AddLogic(name, []*network.Node{x, y}, f))
	}
	for i := 0; i < 4; i++ {
		n.AddPO(fmt.Sprintf("y%d", i), pool[len(pool)-1-i])
	}
	return n
}

// composition counts, over every two-fanin merge a DP enumerates, the
// merges whose composed table (composability check ignored) differs from
// stop-at-leaf evaluation, and the merges the signature check sends to
// cone evaluation although composition is right.
func composition(s *mapState, n *network.Network) (needCone, falseAlarm int) {
	for _, v := range n.Nodes() {
		if v.Kind != network.KindLogic || len(v.Fanins) != 2 {
			continue
		}
		local := s.cone.local[v.ID]
		cuts0, cuts1 := s.cuts[v.Fanins[0].ID], s.cuts[v.Fanins[1].ID]
		for i0 := range cuts0 {
			for i1 := range cuts1 {
				a, b := &cuts0[i0], &cuts1[i1]
				leaves, n, ok := cut.Merge(&a.leaves, a.n, &b.leaves, b.n)
				if !ok {
					continue
				}
				c := mcut{leaves: leaves, n: n}
				ta, addedA := cut.Stretch(a.tt, &a.leaves, a.n, &leaves, n)
				tb, addedB := cut.Stretch(b.tt, &b.leaves, b.n, &leaves, n)
				want, _ := referenceConeTT(v, s.leafNodes(&c))
				switch {
				case apply(local, ta, tb) != want:
					needCone++
				case sigAt(&c, addedA)&a.isig != 0 || sigAt(&c, addedB)&b.isig != 0:
					falseAlarm++
				}
			}
		}
	}
	return needCone, falseAlarm
}

// TestComposedTTMatchesConeEval checks every cut table the enumerator
// produces, composed or cone-evaluated, against the map-based reference on
// random reconvergent networks whose node IDs collide mod 64 and on the AIG
// subject graphs of s5378 and s9234. The random networks must contain
// merges that composition would get wrong and merges whose signatures
// collide, so that a weaker composability test fails here.
func TestComposedTTMatchesConeEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	needCone, falseAlarm := 0, 0
	for trial := 0; trial < 12; trial++ {
		n := randomSubject(rng, []int{1, 63, 64, 65}[trial%4], 300)
		s := checkConeTTs(t, n)
		nc, fa := composition(s, n)
		needCone += nc
		falseAlarm += fa
	}
	t.Logf("random networks: %d merges need cone evaluation, %d signature false alarms", needCone, falseAlarm)
	if needCone == 0 || falseAlarm == 0 {
		t.Fatalf("random networks exercise too little: %d merges need cone evaluation, %d signature false alarms", needCone, falseAlarm)
	}
	for _, name := range []string{"s5378", "s9234"} {
		checkConeTTs(t, aigSubject(t, name))
	}
}

// TestMapperPinned pins what MapDelay reports and returns on one SOP and
// one AIG subject graph: the cuts enumerated, the (cut, gate) candidates
// tried, the mapped area and the STA period. Any change to cut
// generation, deduplication, truth tables or the DP moves these numbers; an
// optimisation of the mapper must leave them exactly where they are.
func TestMapperPinned(t *testing.T) {
	sop := buildCircuit(t, "s1238")
	if err := algebraic.OptimizeDelay(context.Background(), sop, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		subject           *network.Network
		cuts, candidates  int64
		area, periodDelay float64
	}{
		{"s1238 SOP", sop, 15815, 2130, 1799, 29.75},
		{"s9234 AIG", aigSubject(t, "s9234"), 250983, 35484, 20284, 32.7},
	} {
		lib := genlib.Lib2()
		tr := obs.New()
		m, err := MapDelay(context.Background(), tc.subject, lib, tr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := timing.Period(m)
		if err != nil {
			t.Fatal(err)
		}
		if cuts, cands := tr.Counter("mapper_cuts"), tr.Counter("mapper_candidates"); cuts != tc.cuts || cands != tc.candidates {
			t.Errorf("%s: %d cuts, %d candidates; want %d, %d", tc.name, cuts, cands, tc.cuts, tc.candidates)
		}
		if a := Area(m, lib); math.Abs(a-tc.area) > 1e-9 || math.Abs(p-tc.periodDelay) > 1e-9 {
			t.Errorf("%s: area %v, period %v; want %v, %v", tc.name, a, p, tc.area, tc.periodDelay)
		}
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
