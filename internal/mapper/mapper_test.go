package mapper

import (
	"context"
	"testing"

	"repro/internal/algebraic"
	"repro/internal/bitsim"
	"repro/internal/genlib"
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
	if err := seqverify.Equivalent(context.Background(), ref, m, seqverify.Options{}); err != nil {
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
	p, err := timing.Period(m, timing.MappedDelay{N: m})
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
