package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestBasics(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(Pos(a), Pos(b)) {
		t.Fatal("clause rejected")
	}
	if !s.AddClause(Neg(a), Pos(b)) {
		t.Fatal("clause rejected")
	}
	if got := s.Solve(context.Background()); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Fatal("model: b must be true (a∨b, ¬a∨b)")
	}
	// Under the assumption ¬b the formula is unsatisfiable.
	if got := s.Solve(context.Background(), Neg(b)); got != Unsat {
		t.Fatalf("Solve(¬b) = %v, want Unsat", got)
	}
	// Assumptions are temporary: solving again without them succeeds.
	if got := s.Solve(context.Background()); got != Sat {
		t.Fatalf("re-Solve = %v, want Sat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	if s.AddClause(Neg(a)) {
		t.Fatal("¬a after unit a should report top-level conflict")
	}
	if got := s.Solve(context.Background()); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

// pigeonhole builds the classic UNSAT family: n+1 pigeons in n holes.
func pigeonhole(n int) *Solver {
	s := New()
	vars := make([][]Var, n+1)
	for p := range vars {
		vars[p] = make([]Var, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = Pos(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(Neg(vars[p1][h]), Neg(vars[p2][h]))
			}
		}
	}
	return s
}

// TestPigeonhole: hard enough to exercise learning and restarts, small
// enough to stay instant.
func TestPigeonhole(t *testing.T) {
	const n = 6
	s := pigeonhole(n)
	if got := s.Solve(context.Background()); got != Unsat {
		t.Fatalf("pigeonhole(%d) = %v, want Unsat", n, got)
	}
	if s.Stats.Conflicts == 0 {
		t.Fatal("expected a nontrivial search (no conflicts recorded)")
	}
}

// TestMaxConflictsUnknown: pigeonhole(4), the smallest instance that needs
// more than 10 conflicts, gives up under that budget and is refuted once
// the budget is lifted.
func TestMaxConflictsUnknown(t *testing.T) {
	const n = 4
	s := pigeonhole(n)
	s.MaxConflicts = 10
	if got := s.Solve(context.Background()); got != Unknown {
		t.Fatalf("budgeted pigeonhole(%d) = %v, want Unknown", n, got)
	}
	// Raising the budget must recover the verdict on the same instance.
	s.MaxConflicts = 0
	if got := s.Solve(context.Background()); got != Unsat {
		t.Fatalf("unbudgeted pigeonhole(%d) = %v, want Unsat", n, got)
	}
}

// TestSolveHonoursDeadline: pigeonhole(11) takes seconds unbounded; under
// a 20 ms deadline one Solve call gives up within 250 ms.
func TestSolveHonoursDeadline(t *testing.T) {
	s := pigeonhole(11)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	got := s.Solve(ctx)
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("Solve returned %v after %v, want within 250ms of a 20ms deadline", got, el)
	}
	if got != Unknown {
		t.Fatalf("deadline-bounded pigeonhole(11) = %v, want Unknown", got)
	}
}

// bruteForce enumerates all assignments of nv variables and reports
// whether any satisfies every clause.
func bruteForce(nv int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nv); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func modelSatisfies(s *Solver, clauses [][]Lit) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if s.ValueLit(l) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestPropertyCDCLMatchesBruteForce cross-checks the CDCL verdict against
// exhaustive enumeration on random small CNFs, and validates every Sat
// model against the clauses. Densities straddle the phase transition so
// both verdicts occur often.
func TestPropertyCDCLMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	satSeen, unsatSeen := 0, 0
	for iter := 0; iter < 400; iter++ {
		nv := 3 + rng.Intn(12) // ≤ 14 variables
		nc := 1 + rng.Intn(5*nv)
		clauses := make([][]Lit, nc)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1)
			}
			clauses[i] = c
		}
		want := bruteForce(nv, clauses)
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		live := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				live = false
			}
		}
		got := s.Solve(context.Background())
		if live == false && got != Unsat {
			t.Fatalf("iter %d: AddClause reported top-level conflict but Solve = %v", iter, got)
		}
		if (got == Sat) != want {
			t.Fatalf("iter %d (nv=%d nc=%d): CDCL = %v, brute force = %v", iter, nv, nc, got, want)
		}
		if got == Sat {
			satSeen++
			if !modelSatisfies(s, clauses) {
				t.Fatalf("iter %d: Sat model does not satisfy the clauses", iter)
			}
		} else {
			unsatSeen++
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Fatalf("degenerate distribution: sat=%d unsat=%d", satSeen, unsatSeen)
	}
}

// TestPropertyIncrementalAssumptions checks that solving many assumption
// probes on one instance matches fresh single-shot solves of the same
// augmented formula.
func TestPropertyIncrementalAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		nv := 4 + rng.Intn(9)
		nc := 1 + rng.Intn(4*nv)
		clauses := make([][]Lit, nc)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1)
			}
			clauses[i] = c
		}
		inc := New()
		for v := 0; v < nv; v++ {
			inc.NewVar()
		}
		for _, c := range clauses {
			inc.AddClause(c...)
		}
		for probe := 0; probe < 20; probe++ {
			na := 1 + rng.Intn(3)
			seen := map[Var]bool{}
			var assumps []Lit
			for len(assumps) < na {
				v := Var(rng.Intn(nv))
				if seen[v] {
					continue
				}
				seen[v] = true
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 1))
			}
			aug := make([][]Lit, 0, len(clauses)+len(assumps))
			aug = append(aug, clauses...)
			for _, a := range assumps {
				aug = append(aug, []Lit{a})
			}
			want := bruteForce(nv, aug)
			got := inc.Solve(context.Background(), assumps...)
			if (got == Sat) != want {
				t.Fatalf("iter %d probe %d: incremental = %v, brute force = %v (assumps %v)",
					iter, probe, got, want, assumps)
			}
			if got == Sat && !modelSatisfies(inc, aug) {
				t.Fatalf("iter %d probe %d: model violates formula+assumptions", iter, probe)
			}
		}
	}
}

// TestXorGateEqual checks the auxiliary gate emitters.
func TestXorGateEqual(t *testing.T) {
	s := New()
	a, b := Pos(s.NewVar()), Pos(s.NewVar())
	d := XorGate(s, a, b)
	// d assumed true forces a ≠ b.
	if got := s.Solve(context.Background(), d, a, b); got != Unsat {
		t.Fatalf("d∧a∧b = %v, want Unsat", got)
	}
	if got := s.Solve(context.Background(), d, a, b.Not()); got != Sat {
		t.Fatalf("d∧a∧¬b = %v, want Sat", got)
	}
	Equal(s, a, b)
	if got := s.Solve(context.Background(), d); got != Unsat {
		t.Fatalf("a⇔b yet d = %v, want Unsat", got)
	}
	if got := s.Solve(context.Background(), d.Not()); got != Sat {
		t.Fatalf("a⇔b with ¬d = %v, want Sat", got)
	}
}
