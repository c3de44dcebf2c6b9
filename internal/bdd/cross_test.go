package bdd

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// These tests cross-validate the two independent Boolean engines of the
// repository: the SOP cover algebra (unate recursive paradigm) and the
// ROBDD package. Any divergence indicates a bug in one of them.

func randomCover(r *rand.Rand, n, maxCubes int) *logic.Cover {
	f := logic.NewCover(n)
	for i := 0; i < r.Intn(maxCubes+1); i++ {
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
	return f
}

func TestCrossComplement(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 150; trial++ {
		f := randomCover(r, n, 6)
		m := New(n)
		viaCover := m.FromCover(f.Complement(), nil)
		viaBdd := m.Not(m.FromCover(f, nil))
		if viaCover != viaBdd {
			t.Fatalf("trial %d: complement mismatch for\n%v", trial, f)
		}
	}
}

func TestCrossBinaryOps(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 150; trial++ {
		f := randomCover(r, n, 5)
		g := randomCover(r, n, 5)
		m := New(n)
		bf, bg := m.FromCover(f, nil), m.FromCover(g, nil)
		if m.FromCover(logic.And(f, g), nil) != m.And(bf, bg) {
			t.Fatalf("trial %d: AND mismatch", trial)
		}
		if m.FromCover(logic.Or(f, g), nil) != m.Or(bf, bg) {
			t.Fatalf("trial %d: OR mismatch", trial)
		}
		if m.FromCover(logic.Xor(f, g), nil) != m.Xor(bf, bg) {
			t.Fatalf("trial %d: XOR mismatch", trial)
		}
	}
}

func TestCrossTautology(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		f := randomCover(r, n, 8)
		m := New(n)
		if f.IsTautology() != (m.FromCover(f, nil) == True) {
			t.Fatalf("trial %d: tautology verdicts diverge for\n%v", trial, f)
		}
	}
}

func TestCrossCovers(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 150; trial++ {
		f := randomCover(r, n, 5)
		g := randomCover(r, n, 5)
		m := New(n)
		bf, bg := m.FromCover(f, nil), m.FromCover(g, nil)
		// f ⊇ g  ⟺  g → f is a tautology.
		want := m.Implies(bg, bf) == True
		if f.Covers(g) != want {
			t.Fatalf("trial %d: containment verdicts diverge", trial)
		}
	}
}

func TestCrossSimplifyInterval(t *testing.T) {
	// The espresso result must sit in the [f·dc', f+dc] interval — checked
	// through the BDD engine rather than cover containment.
	const n = 5
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 120; trial++ {
		f := randomCover(r, n, 5)
		dc := randomCover(r, n, 3)
		s := logic.Simplify(f, dc)
		m := New(n)
		bf, bdc, bs := m.FromCover(f, nil), m.FromCover(dc, nil), m.FromCover(s, nil)
		upper := m.Or(bf, bdc)
		lower := m.And(bf, m.Not(bdc))
		if m.Implies(bs, upper) != True {
			t.Fatalf("trial %d: simplified cover exceeds f+dc", trial)
		}
		if m.Implies(lower, bs) != True {
			t.Fatalf("trial %d: simplified cover misses f·dc'", trial)
		}
	}
}

func TestCrossCofactor(t *testing.T) {
	const n = 5
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 120; trial++ {
		f := randomCover(r, n, 6)
		v := r.Intn(n)
		phase := r.Intn(2) == 1
		m := New(n)
		bf := m.FromCover(f, nil)
		// BDD cofactor via ite with the variable forced.
		lit := m.Var(v)
		if !phase {
			lit = m.NVar(v)
		}
		// f|lit agrees with f on the half-space where lit holds; compare
		// restricted equality: lit ∧ f == lit ∧ cof.
		cof := m.FromCover(f.CofactorVar(v, phase), nil)
		if m.And(lit, bf) != m.And(lit, cof) {
			t.Fatalf("trial %d: cofactor mismatch", trial)
		}
	}
}

// Implies computes f → g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }
