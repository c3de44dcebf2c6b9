package sweep

import (
	"context"

	"repro/internal/aig"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/sat"
)

// chunkCount is the fixed shard count of one proof round. It is a
// constant — NOT derived from Options.Workers — so the chunk boundaries,
// the per-chunk solver state and therefore every counterexample are
// identical at any worker width; parexec.Map then merges the results in
// index order.
const chunkCount = 8

// chunk is one shard of a round's proof obligations: whole classes (so
// the break-on-first-base-cex policy inside a class stays shard-local) or
// the output-pair obligations.
type chunk struct {
	classIdx []int
	pos      bool
}

type chunkResult struct {
	cexes     []*cex
	unknowns  []int32
	poUnknown int
	poFail    error // *NotEquivalentError: genuine bounded disproof
	// Solver effort of the shard, and the step obligations whose two literals
	// coincided, which no solver call was needed for.
	solves, conflicts, learned, structural int64
}

// makeChunks shards the active classes into at most chunkCount groups of
// balanced obligation count, plus one shard for the output obligations.
func (e *engine) makeChunks(active []int) []chunk {
	var chunks []chunk
	total := 0
	for _, ci := range active {
		total += len(e.classes[ci]) - 1
	}
	if total > 0 {
		per := (total + chunkCount - 1) / chunkCount
		var cur []int
		acc := 0
		for _, ci := range active {
			cur = append(cur, ci)
			acc += len(e.classes[ci]) - 1
			if acc >= per && len(chunks) < chunkCount-1 {
				chunks = append(chunks, chunk{classIdx: cur})
				cur, acc = nil, 0
			}
		}
		if len(cur) > 0 {
			chunks = append(chunks, chunk{classIdx: cur})
		}
	}
	if len(e.pos) > 0 {
		chunks = append(chunks, chunk{pos: true})
	}
	return chunks
}

// litUnset marks a (frame, node) pair not yet encoded. sat.Lit 0 is a
// real literal (variable 0, positive), so the sentinel must be negative.
const litUnset = sat.Lit(-1)

// inst is one lazily unrolled transition-relation instance on a private
// solver. CNF is emitted per cone of influence on demand: an obligation
// over two nodes only ever pays for the logic it can actually observe,
// which is what keeps per-query cost independent of circuit size — the
// monolithic alternative made every CDCL decision walk a 40k-variable
// trail even for a two-gate proof.
//
// The induction-step instance is speculatively reduced: in every frame a
// non-representative class member reads its representative's literal,
// and the encoder strashes, so logic that is equal under the class
// equalities collapses onto shared literals. The base instance is not
// reduced, because the equalities need not hold inside the
// delayed-replacement prefix.
type inst struct {
	e      *engine
	s      *sat.Solver
	falseL sat.Lit
	// init: frame 0 takes the declared initial values (the base/BMC
	// instance). Otherwise frame 0 state variables are free and the
	// frames are reduced (the induction-step instance).
	init   bool
	frames [][]sat.Lit
	// ands holds one literal per AND of two literals already encoded.
	ands map[[2]sat.Lit]sat.Lit
	// hyp marks the (frame, member) pairs hypoRepair has tied to their
	// representative.
	hyp map[[2]int32]bool
}

// node is one AIG node at one frame.
type node struct {
	t  int
	id int32
}

func (e *engine) newInst(nFrames int, init bool) *inst {
	s := sat.New()
	s.MaxConflicts = maxConflicts
	in := &inst{e: e, s: s, falseL: sat.FalseLit(s), init: init,
		ands: make(map[[2]sat.Lit]sat.Lit), hyp: make(map[[2]int32]bool)}
	in.frames = make([][]sat.Lit, nFrames)
	for t := range in.frames {
		fr := make([]sat.Lit, e.g.NumNodes())
		for i := range fr {
			fr[i] = litUnset
		}
		fr[0] = in.falseL
		in.frames[t] = fr
	}
	// A declared initial value is a constant whether an obligation
	// reaches the latch or not, so a base counterexample always starts
	// from a legal initial state.
	for _, la := range e.g.Latches() {
		if init && la.Init != network.VX {
			in.frames[0][la.Out] = withCompl(in.falseL, la.Init == network.V1)
		}
	}
	return in
}

// and returns a literal for a ∧ b: a constant or an operand when the
// pair folds, the existing literal when the pair was seen before, and a
// fresh Tseitin triple otherwise. falseL is literal 0, the smallest, so
// once the pair is ordered only a can be a constant.
func (in *inst) and(a, b sat.Lit) sat.Lit {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == b || a == in.falseL.Not():
		return b
	case a == b.Not() || a == in.falseL:
		return in.falseL
	}
	k := [2]sat.Lit{a, b}
	if c, ok := in.ands[k]; ok {
		return c
	}
	c := sat.Pos(in.s.NewVar())
	in.s.AddClause(c.Not(), a)
	in.s.AddClause(c.Not(), b)
	in.s.AddClause(c, a.Not(), b.Not())
	in.ands[k] = c
	return c
}

func withCompl(l sat.Lit, compl bool) sat.Lit {
	if compl {
		return l.Not()
	}
	return l
}

// own returns node id's own function at frame t over the encoded
// literals of its fanins, or litUnset and the first fanin not encoded
// yet. A PI, a free frame-0 state bit or an unknown initial value is a
// fresh variable; newInst presets declared initial values.
func (in *inst) own(t int, id int32) (sat.Lit, node) {
	g := in.e.g
	if g.IsAnd(id) {
		f0, f1 := g.Fanins(id)
		a := in.frames[t][f0.Node()]
		if a == litUnset {
			return litUnset, node{t, f0.Node()}
		}
		b := in.frames[t][f1.Node()]
		if b == litUnset {
			return litUnset, node{t, f1.Node()}
		}
		return in.and(withCompl(a, f0.Compl()), withCompl(b, f1.Compl())), node{}
	}
	if li, isLatch := in.e.latchIdxOf[id]; isLatch && t > 0 {
		nx := g.Latches()[li].Next
		pl := in.frames[t-1][nx.Node()]
		if pl == litUnset {
			return litUnset, node{t - 1, nx.Node()}
		}
		return withCompl(pl, nx.Compl()), node{}
	}
	return sat.Pos(in.s.NewVar()), node{}
}

// nodeLit returns the literal of node id at frame t, lazily emitting the
// cone of influence (through earlier frames via the latch next-state
// functions) with an explicit work stack. On the step instance a
// non-representative class member is its representative's literal.
func (in *inst) nodeLit(t int, id int32) sat.Lit {
	if l := in.frames[t][id]; l != litUnset {
		return l
	}
	stack := []node{{t, id}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		if in.frames[it.t][it.id] != litUnset {
			stack = stack[:len(stack)-1]
			continue
		}
		var l sat.Lit
		var need node
		if r := in.e.rep[it.id]; r != it.id && !in.init {
			l, need = in.frames[it.t][r], node{it.t, r}
		} else {
			l, need = in.own(it.t, it.id)
		}
		if l == litUnset {
			stack = append(stack, need)
			continue
		}
		in.frames[it.t][it.id] = l
		stack = stack[:len(stack)-1]
	}
	return in.frames[t][id]
}

// ownLit returns member m's own function at frame t over the reduced
// literals of its fanins: what the step instance would encode for m
// without the substitution. A latch at frame 0 has no function of its
// own; its free state bit is the representative's literal.
func (in *inst) ownLit(t int, m int32) sat.Lit {
	if t == 0 && !in.e.g.IsAnd(m) {
		return in.nodeLit(0, m)
	}
	for {
		l, need := in.own(t, m)
		if l != litUnset {
			return l
		}
		in.nodeLit(need.t, need.id)
	}
}

func (in *inst) aigLit(t int, l aig.Lit) sat.Lit {
	return withCompl(in.nodeLit(t, l.Node()), l.Compl())
}

// hypoRepair simulates the trace of an extracted step model and checks it
// against every class equality at the hypothesis frames. A violated
// class means the model exploited a member's own logic, which the
// reduced model does not constrain: the counterexample is spurious.
// Every member m of a class violated at frame t gets
// Equal(ownLit(t, m), rep), once per (frame, member), and the caller
// re-solves; tying the whole class, not only the members this trace
// separates, saves later spurious models. The first node, in frame and
// topological order, where simulation and model disagree is always a
// member of a violated class that is not tied yet, so a trace with no
// such member satisfies every class equality at frames 0..K-1: a genuine
// hypothesis-consistent counterexample. Reports whether anything was
// tied.
func (in *inst) hypoRepair(c *cex, K int) bool {
	e := in.e
	g := e.g
	vals := make([]uint64, g.NumNodes())
	nxt := make([]uint64, len(g.Latches()))
	for i, la := range g.Latches() {
		vals[la.Out] = c.state[i]
	}
	repaired := false
	for t := 0; t < K; t++ {
		if t < len(c.pis) {
			for j, pi := range g.PIs() {
				vals[pi] = c.pis[t][j]
			}
		}
		e.evalFrame(vals)
		for _, cls := range e.classes {
			if holds(vals, cls) {
				continue
			}
			rep := cls[0]
			for _, m := range cls[1:] {
				k := [2]int32{int32(t), m}
				if in.hyp[k] {
					continue
				}
				in.hyp[k] = true
				if o, r := in.ownLit(t, m), in.nodeLit(t, rep); o != r {
					sat.Equal(in.s, o, r)
				}
				repaired = true
			}
		}
		e.advance(vals, nxt)
	}
	return repaired
}

// stepSolve discharges one induction-step obligation under hypothesis
// CEGAR: spurious models strengthen the encoded hypothesis and re-solve;
// only hypothesis-consistent counterexamples escape.
func (e *engine) stepSolve(step *inst, d sat.Lit, nFrames, K int, po bool) (sat.Status, *cex) {
	for {
		st := step.s.Solve(d)
		if st != sat.Sat {
			return st, nil
		}
		c := e.extract(step, false, po, nFrames)
		if !step.hypoRepair(c, K) {
			return st, c
		}
	}
}

// runChunk discharges one shard's obligations on two private lazily-built
// solvers: the reduced K-induction step instance and a bounded base
// instance from the initial states. Each obligation is an assumption
// probe on a fresh XOR gate, so learned clauses accumulate across the
// whole shard; a step obligation whose two literals coincide needs no
// probe.
//
// Member m's step obligation compares its own function at frame K with
// the representative's literal. A clean full round proves every
// obligation in one reduced model, so by induction in topological order
// every member equals its representative at frame K whenever the
// partition holds at frames 0..K-1: the partition is inductive.
func (e *engine) runChunk(ctx context.Context, ch chunk) (chunkResult, error) {
	var cr chunkResult
	K := e.k
	delay := e.delay
	step := e.newInst(K+1, false)
	base := e.newInst(delay+K, true)

	collect := func() {
		cr.solves = step.s.Stats.Solves + base.s.Stats.Solves
		cr.conflicts = step.s.Stats.Conflicts + base.s.Stats.Conflicts
		cr.learned = step.s.Stats.Learned + base.s.Stats.Learned
	}

	for _, ci := range ch.classIdx {
		cls := e.classes[ci]
		rep := cls[0]
		broke := false
		for _, m := range cls[1:] {
			if broke {
				// A base counterexample already refutes this class as
				// stated; the remaining members are re-grouped by
				// refinement and retried next round.
				break
			}
			if cerr := guard.Check(ctx, "sweep.chunk"); cerr != nil {
				collect()
				return cr, cerr
			}
			if la, lb := step.nodeLit(K, rep), step.ownLit(K, m); la == lb {
				cr.structural++
			} else {
				switch st, c := e.stepSolve(step, sat.XorGate(step.s, la, lb), K+1, K, false); st {
				case sat.Sat:
					cr.cexes = append(cr.cexes, c)
					continue
				case sat.Unknown:
					cr.unknowns = append(cr.unknowns, m)
					continue
				}
			}
			for t := delay; t < delay+K && !broke; t++ {
				d := sat.XorGate(base.s, base.nodeLit(t, rep), base.nodeLit(t, m))
				switch base.s.Solve(d) {
				case sat.Sat:
					cr.cexes = append(cr.cexes, e.extract(base, true, false, delay+K))
					broke = true
				case sat.Unknown:
					cr.unknowns = append(cr.unknowns, m)
					t = delay + K // one abandonment is enough for this member
				}
			}
		}
	}

	if ch.pos {
		for _, pp := range e.pos {
			if cerr := guard.Check(ctx, "sweep.chunk"); cerr != nil {
				collect()
				return cr, cerr
			}
			// Base cycles delay..delay+K-1: a model here is a concrete
			// input sequence from the initial states — a real disproof.
			for t := delay; t < delay+K; t++ {
				d := sat.XorGate(base.s, base.aigLit(t, pp.A), base.aigLit(t, pp.B))
				switch base.s.Solve(d) {
				case sat.Sat:
					cr.poFail = &NotEquivalentError{PO: pp.Name, Cycle: t}
					collect()
					return cr, nil
				case sat.Unknown:
					cr.poUnknown++
				}
			}
			// Step: under the hypothesis the pair must agree at frame K-1,
			// covering every cycle ≥ delay+K-1.
			la, lb := step.aigLit(K-1, pp.A), step.aigLit(K-1, pp.B)
			if la == lb {
				cr.structural++
				continue
			}
			switch st, c := e.stepSolve(step, sat.XorGate(step.s, la, lb), K, K, true); st {
			case sat.Sat:
				cr.cexes = append(cr.cexes, c)
			case sat.Unknown:
				cr.poUnknown++
			}
		}
	}
	collect()
	return cr, nil
}

// extract reads a counterexample out of a freshly Sat instance: the
// frame-0 latch state and every frame's PI bits, broadcast to 64-lane
// words. On the step instance an unencoded member reads its
// representative; other nodes the lazy encoding never touched are
// unconstrained — any value extends the model, so they read as 0.
func (e *engine) extract(in *inst, isBase, po bool, nFrames int) *cex {
	g := e.g
	lats := g.Latches()
	bit := func(t int, id int32) bool {
		l := in.frames[t][id]
		if l == litUnset && !in.init {
			l = in.frames[t][e.rep[id]]
		}
		return l != litUnset && in.s.ValueLit(l)
	}
	c := &cex{base: isBase, po: po}
	c.state = make([]uint64, len(lats))
	if isBase {
		c.xmask = make([]bool, len(lats))
	}
	for i := range lats {
		if bit(0, lats[i].Out) {
			c.state[i] = ^uint64(0)
		}
		if isBase && lats[i].Init == network.VX {
			c.xmask[i] = true
		}
	}
	c.pis = make([][]uint64, nFrames)
	for t := 0; t < nFrames; t++ {
		c.pis[t] = make([]uint64, len(g.PIs()))
		for j, pi := range g.PIs() {
			if bit(t, pi) {
				c.pis[t][j] = ^uint64(0)
			}
		}
	}
	return c
}
