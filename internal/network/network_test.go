package network

import (
	"testing"

	"repro/internal/logic"
)

// buildToy makes the classic toy FSM:
//
//	g1 = a AND s      (s = latch output)
//	g2 = g1 OR b
//	latch s <- g2, init 0
//	PO y = g2
func buildToy(t *testing.T) (*Network, *Node, *Node) {
	t.Helper()
	n := New("toy")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and := logic.MustParseCover(2, "11")
	or := logic.MustParseCover(2, "1-", "-1")
	// Build latch first so its output can feed logic; driver set after.
	g1 := n.AddLogic("g1", []*Node{a, a}, and) // placeholder fanins, fixed below
	g2 := n.AddLogic("g2", []*Node{g1, b}, or)
	l := n.AddLatch("s", g2, V0)
	n.SetFunction(g1, []*Node{a, l.Output}, and.Clone())
	n.AddPO("y", g2)
	if err := n.Check(); err != nil {
		t.Fatalf("toy network invalid: %v", err)
	}
	return n, g1, g2
}

func TestBuildAndCheck(t *testing.T) {
	n, g1, g2 := buildToy(t)
	if n.NumLogicNodes() != 2 {
		t.Fatalf("NumLogicNodes = %d", n.NumLogicNodes())
	}
	if got := n.NumFanouts(g2); got != 2 { // latch driver + PO
		t.Fatalf("fanouts of g2 = %d, want 2", got)
	}
	if got := n.NumFanouts(g1); got != 1 {
		t.Fatalf("fanouts of g1 = %d, want 1", got)
	}
	s := n.FindNode("s")
	if s == nil || s.Kind != KindLatchOut {
		t.Fatal("latch output missing")
	}
	if l := n.LatchOfOutput(s); l == nil || l.Name != "s" {
		t.Fatal("LatchOfOutput broken")
	}
}

// TestRegisterRenamesUntilFree pins how a taken name is renamed: the
// suffix _ID is appended until the name is free, so no two nodes share a
// name even when the first renaming is taken too. It covers a given name
// and an automatic one (n<ID>), and the names survive a Clone.
func TestRegisterRenamesUntilFree(t *testing.T) {
	n := New("names")
	buf := logic.MustParseCover(1, "1")
	a := n.AddPI("a")                               // ID 0
	n.AddPI("a_2")                                  // ID 1
	dup := n.AddPI("a")                             // ID 2: a and a_2 are taken
	n.AddLogic("n5", []*Node{a}, buf)               // ID 3
	n.AddLogic("n5_5", []*Node{a}, buf)             // ID 4
	auto := n.AddLogic("", []*Node{a}, buf.Clone()) // ID 5: n5 and n5_5 are taken
	if dup.Name != "a_2_2" || auto.Name != "n5_5_5" {
		t.Fatalf("renamed to %q and %q, want a_2_2 and n5_5_5", dup.Name, auto.Name)
	}
	for _, net := range []*Network{n, n.Clone()} {
		seen := map[string]bool{}
		for _, v := range net.Nodes() {
			if seen[v.Name] || net.FindNode(v.Name) != v {
				t.Fatalf("name %q is not unique to node %d", v.Name, v.ID)
			}
			seen[v.Name] = true
		}
	}
}

func TestDuplicateFaninsMerged(t *testing.T) {
	n := New("m")
	a := n.AddPI("a")
	// f(x0,x1) = x0·x1' with both vars wired to a must collapse to const 0
	// cube removal (a AND NOT a).
	f := logic.MustParseCover(2, "10")
	g := n.AddLogic("g", []*Node{a, a}, f)
	if len(g.Fanins) != 1 {
		t.Fatalf("fanins not merged: %v", g.Fanins)
	}
	if !g.Func.IsZeroFunction() {
		t.Fatalf("a AND NOT a must be 0, got %v", g.Func)
	}
	// And f = x0·x1 wired twice must become identity a.
	f2 := logic.MustParseCover(2, "11")
	g2 := n.AddLogic("g2", []*Node{a, a}, f2)
	if len(g2.Fanins) != 1 || g2.Func.NumLits() != 1 {
		t.Fatalf("a AND a must be a: %v", g2.Func)
	}
	n.AddPO("o1", g)
	n.AddPO("o2", g2)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceFanin(t *testing.T) {
	n, g1, _ := buildToy(t)
	c := n.AddPI("c")
	s := n.FindNode("s")
	n.ReplaceFanin(g1, s, c)
	if g1.FaninIndex(c) < 0 || g1.FaninIndex(s) >= 0 {
		t.Fatal("ReplaceFanin did not rewire")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRedirectConsumers(t *testing.T) {
	n, _, g2 := buildToy(t)
	c := n.AddPI("c")
	n.RedirectConsumers(g2, c)
	if n.NumFanouts(g2) != 0 {
		t.Fatalf("g2 still has %d consumers", n.NumFanouts(g2))
	}
	for _, l := range n.Latches {
		if l.Driver != c {
			t.Fatal("latch driver not redirected")
		}
	}
	if n.POs[0].Driver != c {
		t.Fatal("PO not redirected")
	}
	n.RemoveDeadNode(g2)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicate(t *testing.T) {
	n, g1, _ := buildToy(t)
	d := n.Duplicate(g1)
	if d == g1 || d.Func.N != g1.Func.N || len(d.Fanins) != len(g1.Fanins) {
		t.Fatal("Duplicate shape wrong")
	}
	// The duplicate starts with no consumers.
	if n.NumFanouts(d) != 0 {
		t.Fatal("fresh duplicate must have no consumers")
	}
	n.AddPO("dup_out", d)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCollapse(t *testing.T) {
	// f = g XOR c, g = a AND b. After collapsing g into f:
	// f = (a·b)⊕c over {c, a, b} — verify by simulation of the cover.
	n := New("col")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	g := n.AddLogic("g", []*Node{a, b}, logic.MustParseCover(2, "11"))
	xor := logic.MustParseCover(2, "10", "01")
	f := n.AddLogic("f", []*Node{g, c}, xor)
	n.AddPO("y", f)
	fanins, cover := Compose(f, g)
	n.SetFunction(f, fanins, cover)
	if f.FaninIndex(g) >= 0 {
		t.Fatal("g still a fanin after collapse")
	}
	n.Sweep()
	if n.FindNode("g") != nil {
		t.Fatal("dead g not swept")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	// Exhaustive functional check.
	idxA, idxB, idxC := f.FaninIndex(a), f.FaninIndex(b), f.FaninIndex(c)
	assign := make([]bool, len(f.Fanins))
	for m := 0; m < 8; m++ {
		va, vb, vc := m&1 != 0, m&2 != 0, m&4 != 0
		assign[idxA], assign[idxB], assign[idxC] = va, vb, vc
		want := (va && vb) != vc
		if f.Func.Eval(assign) != want {
			t.Fatalf("collapse wrong at a=%v b=%v c=%v", va, vb, vc)
		}
	}
}

func TestSweepKeepsLive(t *testing.T) {
	n, _, _ := buildToy(t)
	dead := n.AddLogic("dead", []*Node{n.PIs[0]}, logic.MustParseCover(1, "1"))
	_ = dead
	if removed := n.Sweep(); removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	if n.NumLogicNodes() != 2 {
		t.Fatal("Sweep removed live logic")
	}
}

func TestTopoOrder(t *testing.T) {
	n, g1, g2 := buildToy(t)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Node]int{}
	for i, v := range order {
		pos[v] = i
	}
	if pos[g1] > pos[g2] {
		t.Fatal("g1 must precede g2")
	}
}

func TestTopoDetectsCombinationalCycle(t *testing.T) {
	n := New("cyc")
	a := n.AddPI("a")
	g1 := n.AddLogic("g1", []*Node{a}, logic.MustParseCover(1, "1"))
	g2 := n.AddLogic("g2", []*Node{g1}, logic.MustParseCover(1, "1"))
	n.ReplaceFanin(g1, a, g2) // creates a pure combinational loop
	n.AddPO("y", g2)
	if _, err := n.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	n, _, _ := buildToy(t)
	c := n.Clone()
	if err := c.Check(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if len(c.Nodes()) != len(n.Nodes()) || len(c.Latches) != 1 || len(c.POs) != 1 {
		t.Fatal("clone shape differs")
	}
	// Mutating the clone must not affect the original.
	g1c := c.FindNode("g1")
	c.SetFunction(g1c, []*Node{c.PIs[0]}, logic.MustParseCover(1, "1"))
	if n.FindNode("g1").Func.N != 2 {
		t.Fatal("clone mutation leaked into original")
	}
}

// transitiveFanin returns the combinational transitive fanin of node
// (inclusive), stopping at sources, as a set indexed by Node.ID.
func transitiveFanin(n *Network, node *Node) []bool {
	seen := make([]bool, n.nextID)
	stack := []*Node{node}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v.ID] {
			continue
		}
		seen[v.ID] = true
		if !v.IsSource() {
			stack = append(stack, v.Fanins...)
		}
	}
	return seen
}

// transitiveFanout returns the logic nodes in the combinational transitive
// fanout of node (inclusive of logic consumers, exclusive of node itself
// unless it is logic), as a set indexed by Node.ID.
func transitiveFanout(n *Network, node *Node) []bool {
	seen := make([]bool, n.nextID)
	stack := []*Node{node}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range v.fanouts {
			if !seen[c.ID] {
				seen[c.ID] = true
				stack = append(stack, c)
			}
		}
	}
	if node.Kind == KindLogic {
		seen[node.ID] = true
	}
	return seen
}

func TestTransitiveFaninFanout(t *testing.T) {
	n, g1, g2 := buildToy(t)
	tfi := transitiveFanin(n, g2)
	if !tfi[g1.ID] || !tfi[n.PIs[0].ID] || !tfi[n.FindNode("s").ID] {
		t.Fatal("TFI incomplete")
	}
	tfo := transitiveFanout(n, n.FindNode("s"))
	if !tfo[g1.ID] || !tfo[g2.ID] {
		t.Fatal("TFO incomplete")
	}
}

func TestRemoveLatch(t *testing.T) {
	n, g1, _ := buildToy(t)
	s := n.FindNode("s")
	l := n.LatchOfOutput(s)
	// Detach the consumer first.
	a := n.PIs[0]
	n.ReplaceFanin(g1, s, a)
	n.RemoveLatch(l)
	if len(n.Latches) != 0 || n.FindNode("s") != nil {
		t.Fatal("latch not removed")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestConstNodes(t *testing.T) {
	n := New("k")
	one := n.AddConst("one", true)
	zero := n.AddConst("zero", false)
	n.AddPO("o1", one)
	n.AddPO("o0", zero)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if !one.Func.Eval(nil) || zero.Func.Eval(nil) {
		t.Fatal("constant evaluation wrong")
	}
}
