// Package sat implements a small dependency-free CDCL SAT solver: the
// proof engine behind sequential sweeping (internal/sweep). Where the BDD
// engine (internal/bdd, internal/reach) enumerates state spaces implicitly
// and hits a wall around 32 latches, a CDCL solver answers one question at
// a time — "can these two signals ever differ under these constraints?" —
// and scales with the difficulty of the query, not the size of the state
// space.
//
// The solver is a faithful miniature of the MiniSat lineage:
//
//   - unit propagation over two watched literals per clause, with a
//     blocker literal per watcher to skip satisfied-clause visits;
//   - first-UIP conflict analysis producing one learned clause per
//     conflict, minimized by recursive reason-side subsumption;
//   - VSIDS variable activity with exponential decay and phase saving;
//   - Luby-sequence restarts;
//   - incremental solving under assumptions: Solve(ctx, assumps...)
//     pushes the assumptions as pseudo-decisions, so thousands of
//     per-candidate sweep queries reuse one solver instance and
//     everything it has learned.
//
// Learned clauses are periodically reduced by activity (locked and binary
// clauses are kept), bounding memory across long query streams.
//
// Every clause's literals live in one flat arena (MiniSat's clause
// allocator): a clause is an offset and a length into it, and reduceDB
// compacts the arena when it deletes clauses. With the scratch buffers of
// AddClause and conflict analysis, and Reset, which empties a solver but
// keeps every buffer's capacity, a solver reused across instances stops
// allocating once its buffers have grown to the largest instance.
package sat

import (
	"context"
	"fmt"
)

// Var is a 0-based variable index.
type Var int32

// Lit is a literal: variable<<1 | sign, sign 1 meaning negated. This is
// the same packing as aig.Lit, so Tseitin emission is a shift away.
type Lit int32

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(v << 1) }

// Neg returns the negative literal of v.
func Neg(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit builds a literal from a variable and a sign.
func MkLit(v Var, neg bool) Lit {
	if neg {
		return Neg(v)
	}
	return Pos(v)
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Status is a Solve verdict.
type Status int8

const (
	// Unknown means the conflict budget ran out, or Solve's context was
	// done, before a verdict.
	Unknown Status = iota
	// Sat means a satisfying assignment was found (read it with Value).
	Sat
	// Unsat means the clauses plus assumptions are unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver work across the lifetime of the instance.
type Stats struct {
	Solves       int64
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64 // learned clauses added
	Restarts     int64
}

const noReason = int32(-1)

// clause is one disjunction: arena[start:start+size] are its literals.
// The first two are the watched literals; for a clause acting as the
// reason of an implied literal, that literal comes first. A deleted
// clause keeps its slot (so clause references stay stable) with size 0.
type clause struct {
	start, size int32
	act         float64
	learnt      bool
	deleted     bool
}

// watcher pairs a clause reference with a blocker literal: if the blocker
// is already true the clause is satisfied and need not be visited.
type watcher struct {
	cref    int32
	blocker Lit
}

// Solver is an incremental CDCL solver. The zero value is not usable; use
// New, or Reset it.
type Solver struct {
	clauses []clause
	arena   []Lit       // every clause's literals, in clause order
	watches [][]watcher // indexed by Lit

	assign   []lbool // indexed by Var
	model    []lbool // snapshot of assign at the last Sat verdict
	level    []int32 // decision level per assigned var
	reason   []int32 // clause ref per assigned var, noReason for decisions
	polarity []bool  // phase saving: last assigned sign per var

	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     []Var   // binary heap on activity (max at root)
	heapPos  []int32 // position in heap per var, -1 if absent

	claInc float64

	ok bool // false once a top-level conflict is found

	// MaxConflicts bounds one Solve call (0 = unbounded); exceeding it
	// returns Unknown.
	MaxConflicts int64

	Stats Stats

	// Conflict-analysis scratch. seen marks: 1 conflict-side pending,
	// 2 member of the learned clause, 3 proven redundant.
	seen     []byte
	analyzeT []Lit // minimization DFS stack
	marked   []Var // vars marked 3 during one redundant() call
	toClear  []Var // vars marked 3 that survived a successful call
	learnt   []Lit // the clause analyze builds
	addTmp   []Lit // AddClause's simplified copy of its argument
	cands    []scored

	learntLimit int
	nLearnt     int
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{}
	s.Reset()
	return s
}

// Reset empties the solver — no variables, no clauses, zero Stats,
// MaxConflicts 0 — leaving exactly the state New returns, but keeps the
// capacity of every buffer, so refilling it allocates little or nothing.
func (s *Solver) Reset() {
	*s = Solver{
		clauses:  s.clauses[:0],
		arena:    s.arena[:0],
		watches:  s.watches[:0], // NewVar empties the lists it revives
		assign:   s.assign[:0],
		model:    s.model[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		polarity: s.polarity[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		heap:     s.heap[:0],
		heapPos:  s.heapPos[:0],
		seen:     s.seen[:0],
		analyzeT: s.analyzeT[:0],
		marked:   s.marked[:0],
		toClear:  s.toClear[:0],
		learnt:   s.learnt[:0],
		addTmp:   s.addTmp[:0],
		cands:    s.cands[:0],
		varInc:   1, claInc: 1, ok: true, learntLimit: 8192,
	}
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar creates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(s.assign, lUndef)
	s.model = append(s.model, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.polarity = append(s.polarity, true) // default phase: false
	s.activity = append(s.activity, 0)
	s.heapPos = append(s.heapPos, -1)
	s.seen = append(s.seen, 0)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.heapInsert(v)
	return v
}

// value returns the literal's current assignment.
func (s *Solver) value(l Lit) lbool {
	a := s.assign[l.Var()]
	if l.Sign() {
		return -a
	}
	return a
}

// Value returns the variable's value in the last Sat model.
func (s *Solver) Value(v Var) bool { return s.model[v] == lTrue }

// ValueLit returns the literal's truth in the last Sat model.
func (s *Solver) ValueLit(l Lit) bool {
	if l.Sign() {
		return s.model[l.Var()] == lFalse
	}
	return s.model[l.Var()] == lTrue
}

// AddClause adds a disjunction of literals. It returns false if the
// clause makes the formula unsatisfiable at the top level. The slice is
// copied.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	out := s.addTmp[:0]
	defer func() { s.addTmp = out }()
	for _, l := range lits {
		if int(l.Var()) >= len(s.assign) {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(s.pushClause(out, false))
	return true
}

// pushClause copies lits into the arena as a new clause.
func (s *Solver) pushClause(lits []Lit, learnt bool) int32 {
	cref := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause{start: int32(len(s.arena)), size: int32(len(lits)), learnt: learnt})
	s.arena = append(s.arena, lits...)
	if learnt {
		s.nLearnt++
	}
	return cref
}

// lits returns the literals of clause cref, aliasing the arena: valid
// until the next pushClause or reduceDB.
func (s *Solver) lits(cref int32) []Lit {
	c := &s.clauses[cref]
	return s.arena[c.start : c.start+c.size : c.start+c.size]
}

func (s *Solver) attachClause(cref int32) {
	lits := s.lits(cref)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{cref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cref, lits[0]})
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.polarity[v] = l.Sign()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint. It returns the reference
// of a conflicting clause, or noReason.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit clauses watching ¬p
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		confl := noReason
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			lits := s.lits(w.cref)
			// Normalize: the falsified watch goes to position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if s.value(first) == lFalse {
				confl = w.cref
				kept = append(kept, ws[i+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.Stats.Propagations++
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = kept
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

// analyze runs first-UIP conflict analysis. It returns the learned clause
// (asserting literal first), valid until the next analysis, and the
// backtrack level.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := append(s.learnt[:0], 0) // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1

	for {
		if s.clauses[confl].learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1 // lits[0] is p itself on reason-side visits
		}
		for _, q := range s.lits(confl)[start:] {
			v := q.Var()
			if seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			seen[v] = 1
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Minimize: drop literals whose reason chain is subsumed by the rest
	// of the clause (plus already-proven-redundant vars). The marks to
	// clear are recorded up front: the in-place filter overwrites the
	// backing array, so clearing via the filtered slice would leak marks
	// for removed literals into the next analysis.
	for _, l := range learnt[1:] {
		seen[l.Var()] = 2
		s.toClear = append(s.toClear, l.Var())
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == noReason || !s.redundant(l) {
			out = append(out, l)
		}
	}
	for _, v := range s.toClear {
		seen[v] = 0
	}
	s.toClear = s.toClear[:0]
	learnt = out

	// Backtrack level: the highest level among the non-asserting literals
	// (which also takes watch position 1, so the clause is watched on the
	// two highest-level literals).
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	s.learnt = learnt
	return learnt, bt
}

// redundant reports whether literal l is implied, through reason clauses,
// by the other literals of the learned clause. On success the vars proven
// redundant stay marked (3) for reuse by later calls within the same
// analysis; on failure every mark this call set is undone.
func (s *Solver) redundant(l Lit) bool {
	stack := append(s.analyzeT[:0], l)
	marked := s.marked[:0]
	defer func() { s.analyzeT, s.marked = stack, marked }()
	for n := 0; n < len(stack); n++ {
		v := stack[n].Var()
		for _, q := range s.lits(s.reason[v])[1:] {
			qv := q.Var()
			if s.level[qv] == 0 || s.seen[qv] != 0 {
				continue // level-0 fact, clause member, or proven redundant
			}
			if s.reason[qv] == noReason {
				for _, mv := range marked {
					s.seen[mv] = 0
				}
				return false
			}
			s.seen[qv] = 3
			marked = append(marked, qv)
			stack = append(stack, q)
		}
	}
	s.toClear = append(s.toClear, marked...)
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) bumpClause(cref int32) {
	c := &s.clauses[cref]
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.clauses {
			s.clauses[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrackTo(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	lim := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = noReason
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = lim
}

// pickBranchVar pops the highest-activity unassigned variable.
func (s *Solver) pickBranchVar() Var {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// ctxCheckConflicts bounds the conflicts between two looks at Solve's
// context when restarts are further apart.
const ctxCheckConflicts = 1024

// Solve determines satisfiability of the clause database under the given
// assumptions. The assumptions are temporary: they hold for this call
// only. On Sat, the model is available via Value/ValueLit until the next
// Sat verdict overwrites it. Once ctx is done, Solve returns Unknown at
// the next restart, looking at ctx at least every ctxCheckConflicts
// conflicts.
func (s *Solver) Solve(ctx context.Context, assumptions ...Lit) Status {
	s.Stats.Solves++
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	if s.propagate() != noReason {
		s.ok = false
		return Unsat
	}

	conflicts := int64(0)
	restartN := 0
	nextRestart := luby(restartN) * 100
	defer s.backtrackTo(0)

	for {
		confl := s.propagate()
		if confl != noReason {
			conflicts++
			s.Stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.backtrackTo(bt)
			cref := s.learnClause(learnt)
			s.uncheckedEnqueue(learnt[0], cref)
			s.decayActivities()
			if s.MaxConflicts > 0 && conflicts >= s.MaxConflicts {
				return Unknown
			}
			if (conflicts >= nextRestart || conflicts%ctxCheckConflicts == 0) && ctx.Err() != nil {
				return Unknown
			}
			if conflicts >= nextRestart {
				s.Stats.Restarts++
				restartN++
				nextRestart = conflicts + luby(restartN)*100
				keep := int32(len(assumptions))
				if s.decisionLevel() < keep {
					keep = s.decisionLevel()
				}
				s.backtrackTo(keep)
			}
			continue
		}
		if s.numLearnt() > s.learntLimit {
			s.reduceDB()
		}
		// Establish pending assumptions as pseudo-decisions. Conflicts
		// against them flow through the normal analysis above; an
		// assumption found false at its own level is a final Unsat.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // already implied: empty level
			case lFalse:
				return Unsat
			default:
				s.newDecisionLevel()
				s.uncheckedEnqueue(a, noReason)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			copy(s.model, s.assign)
			return Sat
		}
		s.Stats.Decisions++
		s.newDecisionLevel()
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), noReason)
	}
}

func (s *Solver) learnClause(lits []Lit) int32 {
	if len(lits) == 1 {
		return noReason
	}
	cref := s.pushClause(lits, true)
	s.bumpClause(cref)
	s.attachClause(cref)
	s.Stats.Learned++
	return cref
}

func (s *Solver) decayActivities() {
	s.varInc *= 1 / 0.95
	s.claInc *= 1 / 0.999
}

// numLearnt is the live learned-clause count, maintained by pushClause
// and reduceDB — the search loop polls it every iteration, so it must
// not scan the clause database.
func (s *Solver) numLearnt() int { return s.nLearnt }

// reduceDB removes the lower-activity half of the removable learned
// clauses (binary and locked clauses are kept), compacts the arena onto
// the surviving clauses, then rebuilds the watcher lists. Clause
// references are stable — deleted slots stay in the clause list with no
// literals — so reason pointers remain valid.
func (s *Solver) reduceDB() {
	cands := s.cands[:0]
	defer func() { s.cands = cands }()
	for i := range s.clauses {
		c := &s.clauses[i]
		if !c.learnt || c.deleted || c.size <= 2 || s.locked(int32(i)) {
			continue
		}
		cands = append(cands, scored{int32(i), c.act})
	}
	if len(cands) < 2 {
		s.learntLimit *= 2
		return
	}
	// Ascending activity, cref as deterministic tiebreak.
	sortScored(cands)
	for _, sc := range cands[:len(cands)/2] {
		s.clauses[sc.cref].deleted = true
		s.clauses[sc.cref].size = 0
		s.nLearnt--
	}
	// Clauses sit in the arena in reference order, so sliding each live
	// one down over the freed gaps never overwrites a literal still to move.
	end := int32(0)
	for i := range s.clauses {
		c := &s.clauses[i]
		copy(s.arena[end:], s.arena[c.start:c.start+c.size])
		c.start = end
		end += c.size
	}
	s.arena = s.arena[:end]
	for l := range s.watches {
		ws := s.watches[l]
		kept := ws[:0]
		for _, w := range ws {
			if !s.clauses[w.cref].deleted {
				kept = append(kept, w)
			}
		}
		s.watches[l] = kept
	}
	s.learntLimit += s.learntLimit / 2
}

// scored is a reduceDB candidate: a learned clause and its activity.
type scored struct {
	cref int32
	act  float64
}

// sortScored sorts candidates ascending by activity (cref as the
// deterministic tiebreak) with shellsort over the Ciura gap sequence:
// dependency-free and fast enough for the few thousand entries reduceDB
// sees.
func sortScored(a []scored) {
	gaps := [...]int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(a); i++ {
			x := a[i]
			j := i
			for j >= gap && (a[j-gap].act > x.act || (a[j-gap].act == x.act && a[j-gap].cref > x.cref)) {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = x
		}
	}
}

func (s *Solver) locked(cref int32) bool {
	v := s.arena[s.clauses[cref].start].Var()
	return s.reason[v] == cref && s.assign[v] != lUndef
}

// --- VSIDS heap ---

func (s *Solver) heapLess(a, b Var) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapInsert(v Var) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(int32(len(s.heap) - 1))
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[p]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapPop() Var {
	top := s.heap[0]
	s.heapPos[top] = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[c]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
func luby(i int) int64 {
	size, seq := int64(1), 0
	for size < int64(i)+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != int64(i) {
		size = (size - 1) / 2
		seq--
		i = i % int(size)
	}
	return int64(1) << uint(seq)
}
