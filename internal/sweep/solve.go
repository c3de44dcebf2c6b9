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
// the break-on-first-cex policy inside a class stays shard-local) or the
// output-pair obligations.
type chunk struct {
	classIdx []int
	pos      bool
}

type chunkResult struct {
	cexes     []*cex
	unknowns  []int32
	poUnknown int
	poFail    error // *NotEquivalentError: genuine bounded disproof
	stats     sat.Stats
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
type inst struct {
	e      *engine
	s      *sat.Solver
	falseL sat.Lit
	// init: frame 0 takes the declared initial values (the base/BMC
	// instance). Otherwise frame 0 state variables are free (the
	// induction-step instance).
	init   bool
	frames [][]sat.Lit
	// Induction-hypothesis bookkeeping: per hypothesis frame, the class
	// anchor literal and which members are already chained to it.
	anchors [][]sat.Lit
	linked  []map[int32]bool
}

func (e *engine) newInst(nFrames int, init bool, hypoFrames int) *inst {
	s := sat.New()
	s.MaxConflicts = maxConflicts
	in := &inst{e: e, s: s, falseL: sat.FalseLit(s), init: init}
	in.frames = make([][]sat.Lit, nFrames)
	for t := range in.frames {
		fr := make([]sat.Lit, e.g.NumNodes())
		for i := range fr {
			fr[i] = litUnset
		}
		fr[0] = in.falseL
		in.frames[t] = fr
	}
	in.anchors = make([][]sat.Lit, hypoFrames)
	in.linked = make([]map[int32]bool, hypoFrames)
	for t := range in.anchors {
		a := make([]sat.Lit, len(e.classes))
		for i := range a {
			a[i] = litUnset
		}
		in.anchors[t] = a
		in.linked[t] = make(map[int32]bool)
	}
	return in
}

// nodeLit returns the literal of node id at frame t, lazily emitting the
// cone of influence (through earlier frames via the latch next-state
// functions) with an explicit work stack.
func (in *inst) nodeLit(t int, id int32) sat.Lit {
	if l := in.frames[t][id]; l != litUnset {
		return l
	}
	g := in.e.g
	lats := g.Latches()
	type item struct {
		t  int
		id int32
	}
	stack := []item{{t, id}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		if in.frames[it.t][it.id] != litUnset {
			stack = stack[:len(stack)-1]
			continue
		}
		if g.IsAnd(it.id) {
			f0, f1 := g.Fanins(it.id)
			a := in.frames[it.t][f0.Node()]
			if a == litUnset {
				stack = append(stack, item{it.t, f0.Node()})
				continue
			}
			b := in.frames[it.t][f1.Node()]
			if b == litUnset {
				stack = append(stack, item{it.t, f1.Node()})
				continue
			}
			if f0.Compl() {
				a = a.Not()
			}
			if f1.Compl() {
				b = b.Not()
			}
			c := sat.Pos(in.s.NewVar())
			in.s.AddClause(c.Not(), a)
			in.s.AddClause(c.Not(), b)
			in.s.AddClause(c, a.Not(), b.Not())
			in.frames[it.t][it.id] = c
			stack = stack[:len(stack)-1]
			continue
		}
		li, isLatch := in.e.latchIdxOf[it.id]
		switch {
		case isLatch && it.t > 0:
			nx := lats[li].Next
			pl := in.frames[it.t-1][nx.Node()]
			if pl == litUnset {
				stack = append(stack, item{it.t - 1, nx.Node()})
				continue
			}
			if nx.Compl() {
				pl = pl.Not()
			}
			in.frames[it.t][it.id] = pl
		case isLatch && in.init:
			switch lats[li].Init {
			case network.V0:
				in.frames[0][it.id] = in.falseL
			case network.V1:
				in.frames[0][it.id] = in.falseL.Not()
			default:
				in.frames[0][it.id] = sat.Pos(in.s.NewVar())
			}
		default:
			// PI (any frame) or a free induction-state variable.
			in.frames[it.t][it.id] = sat.Pos(in.s.NewVar())
		}
		stack = stack[:len(stack)-1]
	}
	return in.frames[t][id]
}

func (in *inst) aigLit(t int, l aig.Lit) sat.Lit {
	out := in.nodeLit(t, l.Node())
	if l.Compl() {
		return out.Not()
	}
	return out
}

// linkHypothesis chains every class member whose literal now exists in a
// hypothesis frame to its class anchor. Called before each Solve, so the
// induction hypothesis always covers exactly the equalities the encoded
// cones can see — a sound weakening of the global invariant (unencoded
// logic is unobservable by the obligation).
func (in *inst) linkHypothesis() {
	for t := range in.anchors {
		for ci, cls := range in.e.classes {
			for _, m := range cls {
				l := in.frames[t][m]
				if l == litUnset || in.linked[t][m] {
					continue
				}
				if in.anchors[t][ci] == litUnset {
					in.anchors[t][ci] = l
				} else {
					sat.Equal(in.s, in.anchors[t][ci], l)
				}
				in.linked[t][m] = true
			}
		}
	}
}

// hypoRepair checks the trace induced by an extracted model against every
// class equality at the hypothesis frames. A violated class means the
// model exploited logic the lazy encoding had not constrained yet — the
// counterexample is spurious. The violated members are encoded and linked
// so the re-solve sees the stronger hypothesis. Encoded cones always agree
// with the simulation (both are the same boolean function of the same
// state and PI bits), so a violation implies at least one member was
// unencoded and every repair makes progress; a clean trace is a genuine
// counterexample. Reports whether anything new was encoded.
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
			w0 := vals[cls[0]]
			ok := true
			for _, m := range cls[1:] {
				if vals[m] != w0 {
					ok = false
					break
				}
			}
			if ok {
				continue
			}
			for _, m := range cls {
				if in.frames[t][m] == litUnset {
					in.nodeLit(t, m)
					repaired = true
				}
			}
		}
		e.advance(vals, nxt)
	}
	if repaired {
		in.linkHypothesis()
	}
	return repaired
}

// stepSolve discharges one induction-step obligation under hypothesis
// CEGAR: spurious models strengthen the encoded hypothesis and re-solve;
// only invariant-consistent counterexamples escape. This recovers the
// precision of a monolithic encoding while keeping UNSAT queries — the
// overwhelming majority — cone-local.
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
// solvers: a K-induction step instance carrying the visible class
// constraints as hypothesis, and a bounded base instance from the initial
// states. Each obligation is an assumption probe on a fresh XOR gate, so
// learned clauses accumulate across the whole shard.
func (e *engine) runChunk(ctx context.Context, ch chunk) (chunkResult, error) {
	var cr chunkResult
	K := e.opt.K
	delay := e.opt.Delay
	step := e.newInst(K+1, false, K)
	base := e.newInst(delay+K, true, 0)

	collect := func() {
		cr.stats.Solves = step.s.Stats.Solves + base.s.Stats.Solves
		cr.stats.Conflicts = step.s.Stats.Conflicts + base.s.Stats.Conflicts
		cr.stats.Decisions = step.s.Stats.Decisions + base.s.Stats.Decisions
		cr.stats.Propagations = step.s.Stats.Propagations + base.s.Stats.Propagations
		cr.stats.Learned = step.s.Stats.Learned + base.s.Stats.Learned
		cr.stats.Restarts = step.s.Stats.Restarts + base.s.Stats.Restarts
	}

	for _, ci := range ch.classIdx {
		cls := e.classes[ci]
		rep := cls[0]
		broke := false
		for _, m := range cls[1:] {
			if broke {
				// A counterexample already refutes this class as stated;
				// the remaining members are re-grouped by refinement and
				// retried next round.
				break
			}
			if cerr := guard.Check(ctx, "sweep.chunk"); cerr != nil {
				collect()
				return cr, cerr
			}
			la, lb := step.nodeLit(K, rep), step.nodeLit(K, m)
			step.linkHypothesis()
			d := sat.XorGate(step.s, la, lb)
			switch st, c := e.stepSolve(step, d, K+1, K, false); st {
			case sat.Sat:
				cr.cexes = append(cr.cexes, c)
				broke = true
				continue
			case sat.Unknown:
				cr.unknowns = append(cr.unknowns, m)
				continue
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
			step.linkHypothesis()
			d := sat.XorGate(step.s, la, lb)
			switch st, c := e.stepSolve(step, d, K, K, true); st {
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
// words. Nodes the lazy encoding never touched are unconstrained — any
// value extends the model, so they read as 0.
func (e *engine) extract(in *inst, isBase, po bool, nFrames int) *cex {
	g := e.g
	lats := g.Latches()
	bit := func(t int, id int32) bool {
		l := in.frames[t][id]
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
