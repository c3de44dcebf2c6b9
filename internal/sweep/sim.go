package sweep

import (
	"repro/internal/aig"
	"repro/internal/bitsim"
	"repro/internal/network"
)

// 64-lane two-valued simulation directly over the AIG. The engine only
// ever simulates from initial states or from SAT counterexamples, both of
// which assign every input, so the dual-rail X tracking of bitsim is not
// needed here — one word per node, bitwise-parallel lanes.

// evalFrame fills the AND-node words from the already-set CI words.
func (e *engine) evalFrame(vals []uint64) {
	g := e.g
	vals[0] = 0
	for id := int32(1); id < int32(g.NumNodes()); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		a := vals[f0.Node()]
		if f0.Compl() {
			a = ^a
		}
		b := vals[f1.Node()]
		if f1.Compl() {
			b = ^b
		}
		vals[id] = a & b
	}
}

func litWord(vals []uint64, l aig.Lit) uint64 {
	w := vals[l.Node()]
	if l.Compl() {
		return ^w
	}
	return w
}

// advance clocks the registers: every latch output takes its next-state
// word. nxt is a scratch buffer of len(latches).
func (e *engine) advance(vals, nxt []uint64) {
	lats := e.g.Latches()
	for i := range lats {
		nxt[i] = litWord(vals, lats[i].Next)
	}
	for i := range lats {
		vals[lats[i].Out] = nxt[i]
	}
}

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// candidates partitions the object nodes into initial equivalence classes
// by their simulation digest: simWords blocks of 64 random trajectories
// from the initial states, digesting every step at or past the
// delayed-replacement prefix.
func (e *engine) candidates() {
	g := e.g
	nn := g.NumNodes()
	digest := make([]uint64, nn)
	vals := make([]uint64, nn)
	nxt := make([]uint64, len(g.Latches()))
	for w := 0; w < simWords; w++ {
		st := mix64(simSeed, 0xC4D1F00D+uint64(w))
		for _, la := range g.Latches() {
			switch la.Init {
			case network.V0:
				vals[la.Out] = 0
			case network.V1:
				vals[la.Out] = ^uint64(0)
			default:
				vals[la.Out] = splitmix(&st)
			}
		}
		for step := 0; step < e.delay+simSteps; step++ {
			for _, pi := range g.PIs() {
				vals[pi] = splitmix(&st)
			}
			e.evalFrame(vals)
			if step >= e.delay {
				for _, id := range e.objs {
					digest[id] = bitsim.MixSig(digest[id], vals[id], ^vals[id])
				}
			}
			e.advance(vals, nxt)
		}
	}
	classAt := make(map[uint64]int)
	var classes [][]int32
	for _, id := range e.objs {
		d := digest[id]
		ci, ok := classAt[d]
		if !ok {
			classAt[d] = len(classes)
			classes = append(classes, []int32{id})
			continue
		}
		classes[ci] = append(classes[ci], id)
	}
	for _, cls := range classes {
		if len(cls) >= 2 {
			e.classes = append(e.classes, cls)
		}
	}
}

// cex is one SAT counterexample, stored as broadcast words (every lane
// carries the model bit; replay perturbs the lanes that may legally
// diverge).
type cex struct {
	base bool
	// po marks a step counterexample against an output obligation: its
	// final frame is hypothesis-constrained, so no lane may perturb and
	// replay cannot refine anything (the stall is detected by run).
	po bool
	// state is the frame-0 word per latch (initial state for base cexes,
	// the hypothesis-satisfying start state for step cexes).
	state []uint64
	// xmask marks base-cex latches whose initial value is unconstrained
	// (VX): lanes 1-63 may randomize them.
	xmask []bool
	// pis[t][j] is PI j's word at frame t.
	pis [][]uint64
}

// replay re-simulates a counterexample 64 lanes wide and refines every
// class with it. Lane 0 replays the SAT model exactly, so the failing
// pair is guaranteed to split; the other 63 lanes perturb exactly the
// inputs that keep each visited refinement state legal:
//
//   - base cexes are genuine trajectories from the initial states, so
//     free (VX) initial values and every frame's PIs randomize, and the
//     run continues past the recorded trace for extra reachable frames;
//   - step cexes must keep frames 0..K-1 inside the induction
//     hypothesis, so only the final frame's PIs randomize.
//
// Refining only with such states keeps the loop converging toward the
// greatest fixpoint instead of over-splitting on illegal states.
func (e *engine) replay(c *cex, seed uint64) bool {
	g := e.g
	vals := make([]uint64, g.NumNodes())
	nxt := make([]uint64, len(g.Latches()))
	st := seed
	for i, la := range g.Latches() {
		w := c.state[i]
		if c.base && c.xmask[i] {
			w = w&1 | splitmix(&st)&^1
		}
		vals[la.Out] = w
	}
	frames := len(c.pis)
	extra := 0
	if c.base {
		extra = 8
	}
	changed := false
	for t := 0; t < frames+extra; t++ {
		for j, pi := range g.PIs() {
			var w uint64
			if t < frames {
				w = c.pis[t][j]
				if c.base || (t == frames-1 && !c.po) {
					w = w&1 | splitmix(&st)&^1
				}
			} else {
				w = splitmix(&st)
			}
			vals[pi] = w
		}
		e.evalFrame(vals)
		refine := false
		if c.base {
			refine = t >= e.delay
		} else {
			refine = t == frames-1
		}
		if refine && e.refineAt(vals) {
			changed = true
		}
		e.advance(vals, nxt)
	}
	return changed
}

// holds reports whether every member of cls carries its
// representative's word.
func holds(vals []uint64, cls []int32) bool {
	for _, m := range cls[1:] {
		if vals[m] != vals[cls[0]] {
			return false
		}
	}
	return true
}

// refineAt splits every class whose members disagree on the current
// words. Splitting is stable: members keep their ascending order, groups
// appear in first-member order, singletons vanish.
func (e *engine) refineAt(vals []uint64) bool {
	changed := false
	var next [][]int32
	for _, cls := range e.classes {
		if holds(vals, cls) {
			next = append(next, cls)
			continue
		}
		changed = true
		for _, m := range cls {
			e.dirty[m] = true
		}
		var order []uint64
		groups := make(map[uint64][]int32)
		for _, m := range cls {
			w := vals[m]
			if _, ok := groups[w]; !ok {
				order = append(order, w)
			}
			groups[w] = append(groups[w], m)
		}
		for _, w := range order {
			if grp := groups[w]; len(grp) >= 2 {
				next = append(next, grp)
			}
		}
	}
	e.classes = next
	return changed
}
