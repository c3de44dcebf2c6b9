package sat

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
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

// TestPropertyReduceDBMatchesBruteForce runs the brute-force differential
// with the learned-clause limit lowered to a handful, so reduceDB (and its
// locked-clause check) runs many times per solve, including between the
// assumption probes of one incremental instance. Every verdict must still
// match exhaustive enumeration and every Sat model must satisfy the
// clauses and the assumptions.
func TestPropertyReduceDBMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reduced, deleted := 0, 0
	for iter := 0; iter < 150; iter++ {
		nv := 10 + rng.Intn(7) // ≤ 16 variables
		nc := nv*4 + rng.Intn(nv/2+1)
		clauses := make([][]Lit, nc)
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1)
			}
			clauses[i] = c
		}
		s := New()
		s.learntLimit = 2
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		for probe := 0; probe < 4; probe++ {
			var assumps []Lit
			if probe > 0 {
				assumps = append(assumps, MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1))
			}
			aug := append([][]Lit{}, clauses...)
			for _, a := range assumps {
				aug = append(aug, []Lit{a})
			}
			want := bruteForce(nv, aug)
			got := s.Solve(context.Background(), assumps...)
			if (got == Sat) != want {
				t.Fatalf("iter %d probe %d (nv=%d nc=%d): CDCL = %v, brute force = %v", iter, probe, nv, nc, got, want)
			}
			if got == Sat && !modelSatisfies(s, aug) {
				t.Fatalf("iter %d probe %d: Sat model violates formula+assumptions", iter, probe)
			}
		}
		if s.learntLimit > 2 {
			reduced++
		}
		for _, c := range s.clauses {
			if c.learnt && c.deleted {
				deleted++
			}
		}
	}
	if reduced < 50 || deleted == 0 {
		t.Fatalf("reduction barely exercised: %d of 150 instances reduced, %d clauses deleted", reduced, deleted)
	}
}

// TestSortScored checks the reduceDB candidate order against the standard
// library on inputs longer than the largest shellsort gap, with repeated
// activities so the cref tiebreak decides.
func TestSortScored(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 9, 700, 2000} {
		a := make([]scored, n)
		for i := range a {
			a[i] = scored{cref: int32(rng.Intn(4 * n)), act: float64(rng.Intn(8))}
		}
		want := make([]scored, n)
		copy(want, a)
		sort.Slice(want, func(i, j int) bool {
			if want[i].act != want[j].act {
				return want[i].act < want[j].act
			}
			return want[i].cref < want[j].cref
		})
		sortScored(a)
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("n=%d: sortScored order differs from sort.Slice", n)
		}
	}
}

// randomCNF draws nc clauses of 1–3 literals (width 3 when wide) over nv
// variables.
func randomCNF(rng *rand.Rand, nv, nc int, wide bool) [][]Lit {
	clauses := make([][]Lit, nc)
	for i := range clauses {
		width := 3
		if !wide {
			width = 1 + rng.Intn(3)
		}
		c := make([]Lit, width)
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1)
		}
		clauses[i] = c
	}
	return clauses
}

// TestResetMatchesFresh solves a stream of random CNFs, each with a run
// of assumption probes, twice: on a fresh solver per instance and on one
// solver Reset between instances. Instance sizes rise and fall, so the
// reused solver's buffers are sometimes larger than the instance and hold
// stale entries past their length. Every status, every model and the
// final Stats must be identical: Reset must leave exactly the state New
// returns. Every third instance lowers the learned-clause limit to 2, so
// reduceDB and arena compaction run many times; some carry a conflict
// budget, so Unknown verdicts are compared too.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	reused := New()
	reduced := 0
	for iter := 0; iter < 120; iter++ {
		nv := 20 + rng.Intn(80)
		if iter%5 == 4 {
			nv = 3 + rng.Intn(4) // a small instance after larger ones
		}
		// Random 3-SAT near the threshold, and every fourth instance
		// mixed-width (often refuted at the top level).
		clauses := randomCNF(rng, nv, nv*41/10+rng.Intn(nv/4+1), iter%4 != 3)
		lowLimit := iter%3 == 0
		budget := int64(0)
		if iter%7 == 6 {
			budget = int64(1 + rng.Intn(20))
		}
		var probes [][]Lit
		for p := 0; p < 6; p++ {
			var assumps []Lit
			for a := rng.Intn(3); a > 0; a-- {
				assumps = append(assumps, MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1))
			}
			probes = append(probes, assumps)
		}

		fresh := New()
		reused.Reset()
		for _, s := range []*Solver{fresh, reused} {
			if lowLimit {
				s.learntLimit = 2
			}
			s.MaxConflicts = budget
			for v := 0; v < nv; v++ {
				s.NewVar()
			}
		}
		for ci, c := range clauses {
			if a, b := fresh.AddClause(c...), reused.AddClause(c...); a != b {
				t.Fatalf("iter %d clause %d: AddClause fresh %v, reused %v", iter, ci, a, b)
			}
		}
		for pi, assumps := range probes {
			a := fresh.Solve(context.Background(), assumps...)
			b := reused.Solve(context.Background(), assumps...)
			if a != b {
				t.Fatalf("iter %d probe %d: fresh %v, reused %v", iter, pi, a, b)
			}
			if a != Sat {
				continue
			}
			for v := 0; v < nv; v++ {
				if fresh.Value(Var(v)) != reused.Value(Var(v)) {
					t.Fatalf("iter %d probe %d: models differ at variable %d", iter, pi, v)
				}
			}
		}
		if fresh.Stats != reused.Stats {
			t.Fatalf("iter %d: Stats fresh %+v, reused %+v", iter, fresh.Stats, reused.Stats)
		}
		if lowLimit && reused.learntLimit > 2 {
			reduced++
		}
	}
	if reduced < 10 {
		t.Fatalf("reduction barely exercised: %d low-limit instances reduced", reduced)
	}
	// Field by field, a Reset solver is a new one; slices compare by
	// length, since Reset keeps their capacity on purpose.
	reused.Reset()
	got, want := reflect.ValueOf(reused).Elem(), reflect.ValueOf(New()).Elem()
	for i := 0; i < got.NumField(); i++ {
		g, w := got.Field(i), want.Field(i)
		same := g.Kind() == reflect.Slice && g.Len() == w.Len() ||
			g.Kind() != reflect.Slice && g.Equal(w)
		if !same {
			t.Errorf("after Reset, field %s = %v, New gives %v", got.Type().Field(i).Name, g, w)
		}
	}
}

// TestReduceDBReclaimsArena fills a solver with learned clauses, reduces
// it, and checks that the arena then holds exactly the literals of the
// surviving clauses, packed in reference order, that every survivor kept
// its literals, and that the solver still answers correctly.
func TestReduceDBReclaimsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for iter := 0; iter < 40; iter++ {
		nv := 12 + rng.Intn(5) // ≤ 16 variables, for brute force
		clauses := randomCNF(rng, nv, nv*4+rng.Intn(nv/2+1), true)
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		for probe := 0; probe < 8; probe++ {
			s.Solve(context.Background(), MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1))
		}
		before := make(map[int32][]Lit)
		for i := range s.clauses {
			if !s.clauses[i].deleted {
				before[int32(i)] = sortedLits(s.lits(int32(i)))
			}
		}
		arenaBefore := len(s.arena)
		s.reduceDB()
		live, end := 0, int32(0)
		for i := range s.clauses {
			c := &s.clauses[i]
			if c.deleted {
				if c.size != 0 {
					t.Fatalf("iter %d: deleted clause %d keeps %d literals", iter, i, c.size)
				}
				continue
			}
			if c.start != end {
				t.Fatalf("iter %d: clause %d starts at %d, want %d (arena not packed)", iter, i, c.start, end)
			}
			end += c.size
			live++
			if got := sortedLits(s.lits(int32(i))); !reflect.DeepEqual(got, before[int32(i)]) {
				t.Fatalf("iter %d: clause %d literals %v after reduction, %v before", iter, i, got, before[int32(i)])
			}
		}
		if int(end) != len(s.arena) {
			t.Fatalf("iter %d: arena holds %d literals, live clauses %d", iter, len(s.arena), end)
		}
		if len(before) == live {
			continue // nothing removable this time
		}
		if len(s.arena) >= arenaBefore {
			t.Fatalf("iter %d: arena did not shrink (%d -> %d)", iter, arenaBefore, len(s.arena))
		}
		checked++
		if got, want := s.Solve(context.Background()), bruteForce(nv, clauses); (got == Sat) != want {
			t.Fatalf("iter %d: after reduction CDCL = %v, brute force = %v", iter, got, want)
		}
		if s.Solve(context.Background()) == Sat && !modelSatisfies(s, clauses) {
			t.Fatalf("iter %d: model after reduction violates the clauses", iter)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d of 40 instances deleted a clause", checked)
	}
}

func sortedLits(ls []Lit) []Lit {
	out := append([]Lit(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
