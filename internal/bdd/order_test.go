package bdd

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// randomFuncs builds nf random functions over nv variables using a mix of
// connectives, returning the refs. Deterministic per seed.
func randomFuncs(m *Manager, rng *rand.Rand, nv, nf int) []Ref {
	pool := make([]Ref, 0, 2*nv+nf)
	for v := 0; v < nv; v++ {
		pool = append(pool, m.Var(v), m.NVar(v))
	}
	out := make([]Ref, 0, nf)
	for len(out) < nf {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		var f Ref
		switch rng.Intn(4) {
		case 0:
			f = m.And(a, m.Or(b, c))
		case 1:
			f = m.Xor(a, m.And(b, c))
		case 2:
			f = m.Ite(a, b, c)
		default:
			f = m.Or(m.And(a, b), m.Xnor(b, c))
		}
		pool = append(pool, f)
		out = append(out, f)
	}
	return out
}

// truthTable evaluates f over all 2^nv assignments.
func truthTable(m *Manager, f Ref, nv int) []bool {
	tt := make([]bool, 1<<nv)
	assign := make([]bool, nv)
	for mt := range tt {
		for v := 0; v < nv; v++ {
			assign[v] = mt&(1<<v) != 0
		}
		tt[mt] = m.Eval(f, assign)
	}
	return tt
}

func sameTable(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetOrderSemanticsIndependentOfOrder(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(7))
	// Reference manager: identity order.
	ref := New(nv)
	refFs := randomFuncs(ref, rand.New(rand.NewSource(42)), nv, 20)

	for trial := 0; trial < 10; trial++ {
		order := rng.Perm(nv)
		m := New(nv)
		m.SetOrder(order)
		got := m.Order()
		for i, v := range order {
			if got[i] != v {
				t.Fatalf("Order() = %v, want %v", got, order)
			}
		}
		fs := randomFuncs(m, rand.New(rand.NewSource(42)), nv, 20)
		for i := range fs {
			if !sameTable(truthTable(m, fs[i], nv), truthTable(ref, refFs[i], nv)) {
				t.Fatalf("order %v: function %d differs from identity-order build", order, i)
			}
		}
		// Quantification, permutation and covers must stay order-independent.
		vars := make([]bool, nv)
		vars[order[0]] = true
		vars[order[nv-1]] = true
		if !sameTable(truthTable(m, m.Exists(fs[0], vars), nv), truthTable(ref, ref.Exists(refFs[0], vars), nv)) {
			t.Fatalf("order %v: Exists differs", order)
		}
		perm := rng.Perm(nv)
		if !sameTable(truthTable(m, m.Permute(fs[1], perm), nv), truthTable(ref, ref.Permute(refFs[1], perm), nv)) {
			t.Fatalf("order %v: Permute differs", order)
		}
		cov := m.ToCover(fs[2], nv)
		back := m.FromCover(cov, nil)
		if back != fs[2] {
			t.Fatalf("order %v: ToCover/FromCover roundtrip lost the function", order)
		}
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.NVar(4))
	sup := m.Support(f)
	want := []bool{true, false, false, true, true}
	for v := range want {
		if sup[v] != want[v] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
	if s := m.Support(True); len(s) != 5 {
		t.Fatal("Support of a terminal must be an all-false mask")
	}
	// Under a reversed order the support is the same set of variables.
	m2 := New(5)
	m2.SetOrder([]int{4, 3, 2, 1, 0})
	f2 := m2.Or(m2.And(m2.Var(0), m2.Var(3)), m2.NVar(4))
	sup2 := m2.Support(f2)
	for v := range want {
		if sup2[v] != want[v] {
			t.Fatalf("reversed order: Support = %v, want %v", sup2, want)
		}
	}
}

func TestFromCoverVoidCube(t *testing.T) {
	// A cube containing LitNone is void; it must not contribute minterms
	// regardless of later literals in the same cube.
	c := logic.NewCover(3)
	cube := logic.NewCube(3)
	cube.SetLit(0, logic.LitNone)
	cube.SetLit(1, logic.LitPos)
	c.Add(cube)
	ok := logic.NewCube(3)
	ok.SetLit(2, logic.LitPos)
	c.Add(ok)
	m := New(3)
	if got := m.FromCover(c, nil); got != m.Var(2) {
		t.Fatalf("void cube leaked into FromCover result")
	}
}

// Order returns the current variable order: element k is the variable at
// level k. The slice is a copy.
func (m *Manager) Order() []int {
	return append([]int(nil), m.level2var...)
}
