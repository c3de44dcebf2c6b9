package bdd

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("terminal negation wrong")
	}
	x := m.Var(0)
	if m.Not(m.Not(x)) != x {
		t.Fatal("double negation must be canonical")
	}
	if m.And(x, m.Not(x)) != False {
		t.Fatal("x AND !x != 0")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Fatal("x OR !x != 1")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a∧b)∨c  ==  (c∨a)∧(c∨b) by distribution — same BDD node.
	f := m.Or(m.And(a, b), c)
	g := m.And(m.Or(c, a), m.Or(c, b))
	if f != g {
		t.Fatal("equivalent functions have different refs")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Var(0), m.Var(1), m.Var(2), m.Var(3)
	f := m.Xor(m.And(a, b), m.Or(c, m.Not(d)))
	for mt := 0; mt < 16; mt++ {
		as := []bool{mt&1 != 0, mt&2 != 0, mt&4 != 0, mt&8 != 0}
		want := (as[0] && as[1]) != (as[2] || !as[3])
		if m.Eval(f, as) != want {
			t.Fatalf("Eval wrong at %04b", mt)
		}
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	// ∃a (a∧b) = b
	g := m.Exists(f, []bool{true, false, false})
	if g != b {
		t.Fatal("∃a (a∧b) must equal b")
	}
	// ∃a,b (a∧b) = 1
	if m.Exists(f, []bool{true, true, false}) != True {
		t.Fatal("∃a,b (a∧b) must be true")
	}
	// Quantifying an absent variable is identity.
	if m.Exists(f, []bool{false, false, true}) != f {
		t.Fatal("quantifying absent var changed function")
	}
}

func TestAndExistsMatchesComposed(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		m := New(6)
		f := randBdd(m, r, 6)
		g := randBdd(m, r, 6)
		vars := make([]bool, 6)
		for i := range vars {
			vars[i] = r.Intn(2) == 0
		}
		got := m.AndExists(f, g, vars)
		want := m.Exists(m.And(f, g), vars)
		if got != want {
			t.Fatalf("trial %d: AndExists != Exists∘And", trial)
		}
	}
}

func randBdd(m *Manager, r *rand.Rand, depth int) Ref {
	f := False
	terms := 1 + r.Intn(4)
	for i := 0; i < terms; i++ {
		c := True
		for v := 0; v < m.NumVars(); v++ {
			switch r.Intn(3) {
			case 0:
				c = m.And(c, m.Var(v))
			case 1:
				c = m.And(c, m.NVar(v))
			}
		}
		f = m.Or(f, c)
	}
	return f
}

func TestPermute(t *testing.T) {
	m := New(4)
	a, c := m.Var(0), m.Var(2)
	f := m.And(a, m.Not(c))
	// Swap 0<->1 and 2<->3.
	g := m.Permute(f, []int{1, 0, 3, 2})
	want := m.And(m.Var(1), m.Not(m.Var(3)))
	if g != want {
		t.Fatal("Permute wrong")
	}
	// Permuting twice with the same swap is identity.
	if m.Permute(g, []int{1, 0, 3, 2}) != f {
		t.Fatal("Permute not involutive for a swap")
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	if n := m.SatCount(True); n != 8 {
		t.Fatalf("SatCount(1) = %v", n)
	}
	if n := m.SatCount(False); n != 0 {
		t.Fatalf("SatCount(0) = %v", n)
	}
	if n := m.SatCount(a); n != 4 {
		t.Fatalf("SatCount(a) = %v", n)
	}
	if n := m.SatCount(m.And(a, b)); n != 2 {
		t.Fatalf("SatCount(ab) = %v", n)
	}
	if n := m.SatCount(m.Xor(a, b)); n != 4 {
		t.Fatalf("SatCount(a^b) = %v", n)
	}
}

func TestPickCube(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.NVar(2))
	cube := m.PickCube(f)
	if cube == nil {
		t.Fatal("no cube for satisfiable f")
	}
	as := make([]bool, 3)
	for v, l := range cube {
		as[v] = l == logic.LitPos
	}
	if !m.Eval(f, as) {
		t.Fatalf("picked cube %v does not satisfy f", cube)
	}
	if m.PickCube(False) != nil {
		t.Fatal("cube for False")
	}
}

func TestFromCoverToCoverRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 5
		f := logic.NewCover(n)
		for i := 0; i < r.Intn(5); i++ {
			c := logic.NewCube(n)
			for v := 0; v < n; v++ {
				switch r.Intn(3) {
				case 0:
					c.SetLit(v, logic.LitNeg)
				case 1:
					c.SetLit(v, logic.LitPos)
				}
			}
			f.Add(c)
		}
		m := New(n)
		ref := m.FromCover(f, nil)
		back := m.ToCover(ref, n)
		if !f.EquivalentTo(back) {
			t.Fatalf("round trip changed function:\n%v\n->\n%v", f, back)
		}
		// BDD evaluation must match cover evaluation on all minterms.
		for mt := 0; mt < 1<<n; mt++ {
			as := make([]bool, n)
			for v := range as {
				as[v] = mt&(1<<v) != 0
			}
			if m.Eval(ref, as) != f.Eval(as) {
				t.Fatalf("Eval mismatch at %05b", mt)
			}
		}
	}
}

func TestFromCoverVarMap(t *testing.T) {
	m := New(4)
	f := logic.MustParseCover(2, "10")
	ref := m.FromCover(f, []int{3, 1})
	want := m.And(m.Var(3), m.NVar(1))
	if ref != want {
		t.Fatal("varMap not applied")
	}
}

func TestNodeLimit(t *testing.T) {
	m := New(20)
	m.MaxNodes = 50
	defer func() {
		if recover() == nil {
			t.Fatal("expected ErrNodeLimit panic")
		}
	}()
	// Build something big: parity of 20 vars needs ~40+ nodes but with
	// intermediate garbage this exceeds 50 nodes quickly.
	f := False
	for v := 0; v < 20; v++ {
		f = m.Xor(f, m.Var(v))
	}
	_ = f
}

func TestStatsAccounting(t *testing.T) {
	m := New(8)
	s0 := m.Stats()
	if s0.Nodes != 2 || s0.UniqueSize != 0 || s0.CacheHits != 0 {
		t.Fatalf("fresh manager stats off: %+v", s0)
	}
	// Parity of 8 vars: plenty of Ite calls, with repeated subproblems.
	f := False
	for v := 0; v < 8; v++ {
		f = m.Xor(f, m.Var(v))
	}
	// Recompute the same thing: now everything must hit the cache.
	g := False
	for v := 0; v < 8; v++ {
		g = m.Xor(g, m.Var(v))
	}
	if f != g {
		t.Fatal("parity not canonical")
	}
	s := m.Stats()
	if s.CacheMisses == 0 {
		t.Fatal("first computation must record cache misses")
	}
	if s.CacheHits == 0 {
		t.Fatal("recomputation must record cache hits")
	}
	if s.UniqueSize != s.Nodes-2 {
		t.Fatalf("unique table (%d) must track internal nodes (%d)", s.UniqueSize, s.Nodes-2)
	}
	if s.PeakNodes != s.Nodes {
		t.Fatalf("peak (%d) must equal nodes (%d): nodes are never freed", s.PeakNodes, s.Nodes)
	}
	if nc := m.NodeCount(f); nc <= 0 || nc > s.UniqueSize {
		t.Fatalf("NodeCount(parity) = %d out of range (unique=%d)", nc, s.UniqueSize)
	}
	// Parity of n vars has exactly 2n-1 internal nodes in a reduced BDD.
	if nc := m.NodeCount(f); nc != 15 {
		t.Fatalf("NodeCount(parity8) = %d, want 15", nc)
	}
	if m.NodeCount(True) != 0 || m.NodeCount(False) != 0 {
		t.Fatal("terminals have zero internal nodes")
	}
}

// SatCount returns the number of satisfying assignments over all NumVars
// variables as a float64.
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(f Ref, level int32) float64
	count = func(f Ref, level int32) float64 {
		if f == False {
			return 0
		}
		fl := m.level(f)
		if f == True {
			fl = int32(m.numVars)
		}
		gap := 1.0 // multiplier for the variables skipped above f
		for i := level; i < fl; i++ {
			gap *= 2
		}
		if f == True {
			return gap
		}
		var sub float64
		if v, ok := memo[f]; ok {
			sub = v
		} else {
			n := m.nodes[f]
			sub = count(n.lo, fl+1) + count(n.hi, fl+1)
			memo[f] = sub
		}
		return gap * sub
	}
	return count(f, 0)
}

// FromCover builds the BDD of a SOP cover; cover variable i maps to manager
// variable varMap[i] (identity when varMap is nil).
func (m *Manager) FromCover(f *logic.Cover, varMap []int) Ref {
	r := False
	for _, c := range f.Cubes {
		cube := True
		for v := 0; v < c.N; v++ {
			mv := v
			if varMap != nil {
				mv = varMap[v]
			}
			switch c.Lit(v) {
			case logic.LitPos:
				cube = m.And(cube, m.Var(mv))
			case logic.LitNeg:
				cube = m.And(cube, m.NVar(mv))
			case logic.LitNone:
				cube = False
			}
			if cube == False {
				break // a void literal (or contradiction) kills the cube
			}
		}
		r = m.Or(r, cube)
	}
	return r
}
