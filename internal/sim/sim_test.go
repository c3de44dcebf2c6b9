package sim

import (
	"testing"

	"repro/internal/bitsim"
	"repro/internal/logic"
	"repro/internal/network"
)

// buildCounter builds a 2-bit synchronous counter with enable:
//
//	d0 = s0 XOR en
//	d1 = s1 XOR (s0 AND en)
//	PO c = s1 AND s0
func buildCounter(t *testing.T) *network.Network {
	t.Helper()
	n := network.New("cnt2")
	en := n.AddPI("en")
	xor := logic.MustParseCover(2, "10", "01")
	and := logic.MustParseCover(2, "11")
	// Create latches with placeholder drivers (the enable PI), then fix.
	l0 := n.AddLatch("s0", en, network.V0)
	l1 := n.AddLatch("s1", en, network.V0)
	d0 := n.AddLogic("d0", []*network.Node{l0.Output, en}, xor.Clone())
	t0 := n.AddLogic("t0", []*network.Node{l0.Output, en}, and.Clone())
	d1 := n.AddLogic("d1", []*network.Node{l1.Output, t0}, xor.Clone())
	c := n.AddLogic("c", []*network.Node{l1.Output, l0.Output}, and.Clone())
	l0.Driver = d0
	l1.Driver = d1
	n.AddPO("c", c)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCounterSequence(t *testing.T) {
	n := buildCounter(t)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// Count 0,1,2,3 -> carry asserted in state 3.
	wantCarry := []bool{false, false, false, true, false, false, false, true}
	for cyc, want := range wantCarry {
		out := s.StepBits([]bool{true})
		if out[0] != want {
			t.Fatalf("cycle %d: carry=%v want %v", cyc, out[0], want)
		}
	}
	// With enable low the state freezes.
	s.Reset()
	s.StepBits([]bool{true}) // state 1
	st := s.State()
	s.StepBits([]bool{false})
	for i, v := range s.State() {
		if v != st[i] {
			t.Fatal("state changed with enable low")
		}
	}
}

func TestThreeValuedConservative(t *testing.T) {
	n := buildCounter(t)
	s, _ := New(n)
	// Unknown state: outputs/latches stay X under unknown inputs.
	s.SetState([]network.Value{network.VX, network.VX})
	out := s.Step3(nil) // all PIs X
	if out["c"] != network.VX {
		t.Fatalf("carry = %v, want X", out["c"])
	}
	// XOR of X with a known 0 stays X (conservative).
	s.SetState([]network.Value{network.VX, network.V0})
	pi := map[*network.Node]network.Value{n.PIs[0]: network.V0}
	s.Step3(pi)
	if s.State()[0] != network.VX {
		t.Fatal("s0 must remain X")
	}
}

func TestThreeValuedDominance(t *testing.T) {
	// AND with a controlling 0 yields 0 even if the other input is X.
	n := network.New("andx")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLogic("g", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	n.AddPO("y", g)
	s, _ := New(n)
	out := s.Step3(map[*network.Node]network.Value{a: network.V0})
	if out["y"] != network.V0 {
		t.Fatalf("0 AND X = %v, want 0", out["y"])
	}
	// OR with a controlling 1.
	n2 := network.New("orx")
	a2 := n2.AddPI("a")
	b2 := n2.AddPI("b")
	g2 := n2.AddLogic("g", []*network.Node{a2, b2}, logic.MustParseCover(2, "1-", "-1"))
	n2.AddPO("y", g2)
	s2, _ := New(n2)
	out2 := s2.Step3(map[*network.Node]network.Value{a2: network.V1})
	if out2["y"] != network.V1 {
		t.Fatalf("1 OR X = %v, want 1", out2["y"])
	}
}

func TestRandomEquivalentSelf(t *testing.T) {
	n := buildCounter(t)
	m := n.Clone()
	if err := bitsim.RandomEquivalent(n, m, 0, 200, 1, bitsim.Options{}); err != nil {
		t.Fatalf("network not equivalent to its clone: %v", err)
	}
}

func TestRandomEquivalentCatchesBug(t *testing.T) {
	n := buildCounter(t)
	m := n.Clone()
	// Corrupt the clone: carry becomes OR instead of AND.
	c := m.FindNode("c")
	m.SetFunction(c, c.Fanins, logic.MustParseCover(2, "1-", "-1"))
	if err := bitsim.RandomEquivalent(n, m, 0, 200, 1, bitsim.Options{}); err == nil {
		t.Fatal("corrupted network reported equivalent")
	}
}

func TestDelayedReplacementPrefixMasksStartup(t *testing.T) {
	// Machine A: PO = s where s holds input delayed by one cycle, init 0.
	// Machine B: same but init 1. They differ only at cycle 0, so with a
	// 1-cycle delayed-replacement prefix they are equivalent.
	build := func(init network.Value) *network.Network {
		n := network.New("d")
		a := n.AddPI("a")
		l := n.AddLatch("s", a, init)
		buf := n.AddLogic("buf", []*network.Node{l.Output}, logic.MustParseCover(1, "1"))
		n.AddPO("y", buf)
		return n
	}
	a := build(network.V0)
	b := build(network.V1)
	if err := bitsim.RandomEquivalent(a, b, 0, 50, 3, bitsim.Options{}); err == nil {
		t.Fatal("differing initial outputs must be caught without prefix")
	}
	if err := bitsim.RandomEquivalent(a, b, 1, 50, 3, bitsim.Options{}); err != nil {
		t.Fatalf("1-cycle prefix must mask the initial difference: %v", err)
	}
}
