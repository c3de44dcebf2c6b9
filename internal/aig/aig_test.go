package aig

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/network"
)

// evalLit evaluates a literal under a CI assignment by recursing through
// the AND structure — the semantic oracle for the constructor tests.
func evalLit(g *Graph, l Lit, in map[int32]bool) bool {
	var eval func(id int32) bool
	eval = func(id int32) bool {
		if id == 0 {
			return false
		}
		if g.IsCI(id) {
			return in[id]
		}
		f0, f1 := g.Fanins(id)
		return eval(f0.Node()) != f0.Compl() && eval(f1.Node()) != f1.Compl()
	}
	return eval(l.Node()) != l.Compl()
}

func TestAndRules(t *testing.T) {
	g := New("rules")
	a := g.AddPI("a")
	b := g.AddPI("b")
	ab := g.And(a, b)
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"zero dominates", g.And(a, False), False},
		{"one is identity", g.And(True, b), b},
		{"idempotence", g.And(a, a), a},
		{"complement", g.And(a, a.Not()), False},
		{"commutativity", g.And(b, a), ab},
		{"containment", g.And(a, ab), ab},
		{"contradiction", g.And(a.Not(), ab), False},
		{"subsumption", g.And(a.Not(), ab.Not()), a.Not()},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if g.NumAnds() != 1 {
		t.Errorf("rewrite rules leaked nodes: %d ANDs, want 1", g.NumAnds())
	}
	if g.StrashHits() == 0 {
		t.Error("no strash hits recorded")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStrashSharing(t *testing.T) {
	g := New("strash")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(g.And(a, b), c)
	before := g.NumAnds()
	y := g.And(c, g.And(b, a)) // same function, different construction order
	if x != y {
		t.Fatalf("structural hashing missed: %v vs %v", x, y)
	}
	if g.NumAnds() != before {
		t.Fatalf("duplicate nodes created: %d, want %d", g.NumAnds(), before)
	}
}

func TestGateSemantics(t *testing.T) {
	g := New("sem")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ids := []int32{a.Node(), b.Node(), c.Node()}
	and, or, xor, mux := g.And(a, b), g.Or(a, b), g.Xor(a, b), g.Mux(a, b, c)
	for m := 0; m < 8; m++ {
		in := map[int32]bool{}
		for i, id := range ids {
			in[id] = m&(1<<i) != 0
		}
		va, vb, vc := in[ids[0]], in[ids[1]], in[ids[2]]
		checks := []struct {
			name string
			l    Lit
			want bool
		}{
			{"and", and, va && vb},
			{"or", or, va || vb},
			{"xor", xor, va != vb},
			{"mux", mux, (va && vb) || (!va && vc)},
		}
		for _, ch := range checks {
			if got := evalLit(g, ch.l, in); got != ch.want {
				t.Errorf("%s(%v,%v,%v) = %v, want %v", ch.name, va, vb, vc, got, ch.want)
			}
		}
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelsAndDepth(t *testing.T) {
	g := New("depth")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	// Skewed chain: depth grows by one per AND.
	chain := g.And(g.And(g.And(a, b), c), d)
	if got := g.Level(chain.Node()); got != 3 {
		t.Errorf("chain level = %d, want 3", got)
	}
	g.AddPO("y", chain)
	if got := g.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
}

func TestSweepRemovesDeadNodes(t *testing.T) {
	g := New("sweep")
	a := g.AddPI("a")
	b := g.AddPI("b")
	q := g.AddLatch("q", network.V0)
	dead := g.And(g.And(a, b.Not()), q) // never referenced by an output
	_ = dead
	live := g.And(a, q)
	g.AddPO("y", live.Not())
	g.SetLatchNext(0, g.And(b, q.Not()))
	removed := g.Sweep()
	if removed != 2 {
		t.Fatalf("Sweep removed %d nodes, want 2", removed)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if g.NumAnds() != 2 {
		t.Fatalf("post-sweep ANDs = %d, want 2", g.NumAnds())
	}
	// The survivors must still compute the same functions.
	in := map[int32]bool{}
	for _, id := range g.pis {
		in[id] = true
	}
	in[g.latches[0].Out] = false
	if got := evalLit(g, g.pos[0].Lit, in); got != true {
		t.Errorf("post-sweep PO(a=1,q=0) = %v, want true", got)
	}
	if got := evalLit(g, g.latches[0].Next, in); got != true {
		t.Errorf("post-sweep next(b=1,q=0) = %v, want true", got)
	}
}

// criticalNodes returns the AND nodes with zero slack under the exact
// unit-delay arrival/required analysis — the nodes on some maximum-depth
// combinational path — in ascending id order.
func criticalNodes(g *Graph) []int32 {
	req := g.requiredTimes()
	var crit []int32
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if g.IsAnd(id) && req[id] != reqInf && req[id] == g.levels[id] {
			crit = append(crit, id)
		}
	}
	return crit
}

func TestCriticalNodes(t *testing.T) {
	g := New("crit")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	deep := g.And(g.And(g.And(a, b), c), d) // levels 1,2,3
	shallow := g.And(a, d)                  // level 1, positive slack
	g.AddPO("deep", deep)
	g.AddPO("shallow", shallow)
	crit := criticalNodes(g)
	// The deep chain's AND nodes (canonical fanin order may put the chain
	// parent in either fanin slot).
	want := map[int32]bool{}
	for l := deep; g.IsAnd(l.Node()); {
		want[l.Node()] = true
		f0, f1 := g.Fanins(l.Node())
		if g.IsAnd(f0.Node()) {
			l = f0
		} else {
			l = f1
		}
	}
	if len(crit) != len(want) {
		t.Fatalf("critical set %v, want the %d-node deep chain", crit, len(want))
	}
	for _, id := range crit {
		if !want[id] {
			t.Errorf("node %d (level %d) reported critical", id, g.Level(id))
		}
		if id == shallow.Node() {
			t.Error("shallow node reported critical")
		}
	}
}

func TestBalanceReducesDepth(t *testing.T) {
	g := New("bal")
	lits := make([]Lit, 8)
	for i := range lits {
		lits[i] = g.AddPI(string(rune('a' + i)))
	}
	// Worst-case skew: a linear chain of 8 leaves, depth 7. Balanced: 3.
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = g.And(acc, l)
	}
	g.AddPO("y", acc)
	if g.Depth() != 7 {
		t.Fatalf("pre-balance depth = %d, want 7", g.Depth())
	}
	ng := g.Balance()
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	if ng.Depth() != 3 {
		t.Errorf("post-balance depth = %d, want 3", ng.Depth())
	}
	// Equivalence through the network converters.
	na, err := g.ToSubjectNetwork()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ng.ToSubjectNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := bitsim.RandomEquivalent(na, nb, 0, 64, 1, bitsim.Options{}); err != nil {
		t.Fatalf("balance changed the function: %v", err)
	}
}

func TestBalancePreservesSequential(t *testing.T) {
	src := bench.Synthetic(bench.Profile{Name: "balseq", PIs: 6, POs: 4, FFs: 5, Gates: 60, Seed: 11})
	g, err := FromNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	ng := g.Balance()
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	if ng.Depth() > g.Depth() {
		t.Errorf("balance increased depth: %d -> %d", g.Depth(), ng.Depth())
	}
	back, err := ng.ToSubjectNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := bitsim.RandomEquivalent(src, back, 0, 200, 7, bitsim.Options{}); err != nil {
		t.Fatalf("balanced graph diverges from source: %v", err)
	}
}
