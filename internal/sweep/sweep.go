// Package sweep implements SAT-based sequential sweeping: simulation-
// guided equivalence proving over And-Inverter Graphs in the style of
// van Eijk. Exact BDD reachability (internal/reach) stops at 32 latches;
// sweeping replaces the reachable-state computation with an inductive
// argument that scales to tens of thousands of registers:
//
//  1. Random 64-lane simulation from the initial states partitions the
//     registers and internal AIG nodes into candidate equivalence
//     classes by packed-word digest (bitsim.MixSig).
//  2. Each candidate pair becomes two proof obligations on an
//     incremental CDCL solver (internal/sat): a K-induction step on the
//     speculatively reduced model (every member reads its
//     representative's literal), and a bounded base check from the
//     initial states. Counterexamples are re-simulated 64 lanes wide, so
//     one SAT model refines every class at once, not just the failing
//     pair.
//  3. The loop converges when a whole round of obligations is UNSAT:
//     the surviving partition is then a proven inductive invariant —
//     every class equality holds in all reachable states from the
//     delayed-replacement prefix on.
//
// ProveEquivalent deepens the induction itself (K = 1, 2, …,
// maxInductionDepth, a fresh engine per depth) until the proof closes, so
// no caller picks K.
//
// Refinement only ever splits classes, so the result is sound even when
// the conflict budget abandons an obligation (the member just leaves its
// class). Chunked proof obligations are sharded across parexec with
// index-ordered merging; the fixed chunking depends only on the class
// structure, so results are byte-identical at any -workers width.
package sweep

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/aig"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/parexec"
)

// ErrUnknown reports that induction was inconclusive: nothing was
// disproved, but the candidate invariant is too weak (or the conflict
// budget too small) to finish the proof.
var ErrUnknown = errors.New("sweep: induction inconclusive")

// NotEquivalentError is a genuine disproof: a concrete input sequence
// from the initial states on which a primary output pair differs at or
// after the delayed-replacement prefix.
type NotEquivalentError struct {
	PO    string
	Cycle int
}

func (e *NotEquivalentError) Error() string {
	return fmt.Sprintf("sweep: PO %q differs at cycle %d (bounded counterexample from the initial states)", e.PO, e.Cycle)
}

// The fixed effort of every sweep.
const (
	// simWords is the number of 64-lane random simulation blocks used for
	// candidate discovery.
	simWords = 4
	// simSteps is the number of clocked steps per simulation block.
	simSteps = 64
	// maxConflicts is the per-obligation CDCL conflict budget; an
	// obligation that exhausts it is abandoned and its member leaves the
	// class.
	maxConflicts = 16384
	// maxFrames refuses instances whose unrolling delay+K exceeds it.
	maxFrames = 96
	// maxInductionDepth is the deepest induction ProveEquivalent tries: the
	// depth the s382 retime output of Table I needs, the deepest of any
	// cell.
	maxInductionDepth = 4
	// simSeed drives every random choice.
	simSeed = 1
)

// Options configures a sweep.
type Options struct {
	// Workers bounds the parallel proof shards (default: all cores).
	Workers int
	// Tracer receives sweep.* spans and solver counters; nil is valid.
	Tracer *obs.Tracer
}

// Result carries the proven partition and the solver effort behind it.
type Result struct {
	// Classes are the proven register equivalence classes as latch
	// indices (ascending; classes ordered by first member). Every pair in
	// a class is equal in all reachable states from the delayed-replacement
	// prefix on.
	Classes [][]int
	// Const lists latches proven stuck at constant 0.
	Const []int
	// NodeEquivs counts all proven pairwise equivalences, including
	// internal AIG nodes.
	NodeEquivs int
	// Candidates counts the simulation-suggested pairs before proving.
	Candidates int
	Rounds     int
	// Cexes counts SAT counterexamples that refined the partition.
	Cexes int
	// Unknowns counts obligations abandoned on the conflict budget.
	Unknowns  int
	SatCalls  int64
	Conflicts int64
	Learned   int64
	// Structural counts step obligations whose literals coincided.
	Structural int64
	// K is the induction depth of the run that decided the outcome.
	K int
}

// addEffort folds the solver effort of o, an inconclusive shallower run,
// into r.
func (r *Result) addEffort(o *Result) {
	r.Rounds += o.Rounds
	r.Cexes += o.Cexes
	r.Unknowns += o.Unknowns
	r.SatCalls += o.SatCalls
	r.Conflicts += o.Conflicts
	r.Learned += o.Learned
	r.Structural += o.Structural
}

// Registers proves register equivalence classes of one network by simple
// induction (K = 1). The classes are valid in every reachable state, so
// they serve the flows exactly like retiming-induced ones. Abandoned
// obligations shrink classes instead of failing the call.
func Registers(ctx context.Context, n *network.Network, opt Options) (*Result, error) {
	return registers(ctx, n, 1, opt)
}

func registers(ctx context.Context, n *network.Network, k int, opt Options) (*Result, error) {
	sp := opt.Tracer.Begin("sweep.registers")
	defer sp.End()
	g, err := aig.FromNetwork(n)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	e := newEngine(g, nil, 0, k, opt)
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	res := e.result()
	record(sp, res)
	return res, nil
}

// ProveEquivalent proves sequential equivalence of two networks under the
// delayed-replacement prefix by sweeping their product AIG: shared PIs,
// both latch sets, and every name-matched PO pair as an extra proof
// obligation. A nil error is a proof ("proved-by-induction"); a
// *NotEquivalentError is a genuine bounded disproof; ErrUnknown means the
// invariant was too weak to decide at every depth up to maxInductionDepth,
// or the unrolling would pass maxFrames. The Result carries solver
// statistics in every outcome that ran the engine.
func ProveEquivalent(ctx context.Context, a, b *network.Network, delay int, opt Options) (*Result, error) {
	return proveEquivalent(ctx, a, b, delay, 1, opt)
}

// proveEquivalent tries K = minK, …, maxInductionDepth and stops at the first
// outcome that is not ErrUnknown. Each depth starts on a fresh engine: a
// class split by a K-step counterexample may hold at K+1, so the K
// partition is no start for the deeper proof.
func proveEquivalent(ctx context.Context, a, b *network.Network, delay, minK int, opt Options) (*Result, error) {
	sp := opt.Tracer.Begin("sweep.prove")
	defer sp.End()
	g, pos, err := aig.FromProduct(a, b)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	res := &Result{}
	for k := minK; k <= maxInductionDepth; k++ {
		if delay+k > maxFrames {
			err = fmt.Errorf("sweep: unrolling depth %d exceeds %d frames: %w", delay+k, maxFrames, ErrUnknown)
			break
		}
		e := newEngine(g, pos, delay, k, opt)
		err = e.run(ctx)
		r := e.result()
		r.K = k
		r.addEffort(res)
		res = r
		if !errors.Is(err, ErrUnknown) {
			break
		}
	}
	record(sp, res)
	sp.Add("sweep_induction_k", int64(res.K))
	return res, err
}

func record(sp *obs.Span, res *Result) {
	sp.Add("sweep_classes_proved", int64(len(res.Classes)))
	sp.Add("sweep_cex_refinements", int64(res.Cexes))
	sp.Add("sat_conflicts", res.Conflicts)
	sp.Add("sat_learned_clauses", res.Learned)
	sp.Add("sat_calls", res.SatCalls)
	sp.Add("sweep_structural", res.Structural)
}

// engine is one sweep run over one AIG at one induction depth.
type engine struct {
	g   *aig.Graph
	pos []aig.ProductPO
	opt Options
	// delay is the delayed-replacement prefix: class and output equalities
	// are required to hold from cycle delay on only.
	delay int
	k     int // induction depth

	objs       []int32       // candidate object nodes: const 0, latch outputs, ANDs
	latchIdxOf map[int32]int // latch output node -> latch index
	classes    [][]int32     // current partition; members ascending, rep = first
	rep        []int32       // per node: its class representative this round, else itself
	// dirty marks members of classes changed by the latest refinement;
	// incremental rounds re-prove only classes holding a dirty member.
	dirty map[int32]bool

	res Result
}

func newEngine(g *aig.Graph, pos []aig.ProductPO, delay, k int, opt Options) *engine {
	e := &engine{g: g, pos: pos, opt: opt, delay: delay, k: k, dirty: make(map[int32]bool),
		rep: make([]int32, g.NumNodes())}
	e.latchIdxOf = make(map[int32]int, len(g.Latches()))
	for i, la := range g.Latches() {
		e.latchIdxOf[la.Out] = i
	}
	e.objs = append(e.objs, 0)
	for id := int32(1); id < int32(g.NumNodes()); id++ {
		if g.IsAnd(id) {
			e.objs = append(e.objs, id)
			continue
		}
		if _, ok := e.latchIdxOf[id]; ok {
			e.objs = append(e.objs, id)
		}
	}
	return e
}

// run drives candidate discovery and the refinement loop to convergence.
func (e *engine) run(ctx context.Context) error {
	e.candidates()
	for _, cls := range e.classes {
		e.res.Candidates += len(cls) - 1
	}
	maxRounds := e.res.Candidates + len(e.pos) + 8
	// Incremental rounds re-prove only classes the latest refinement
	// touched — their obligations are the ones most likely to fail again.
	// A clean incremental round is NOT a proof (an untouched class may
	// have leaned on a refuted equality), so it escalates to a full round;
	// only a clean full round certifies the partition.
	fullRound := true
	for {
		if cerr := guard.Check(ctx, "sweep.run"); cerr != nil {
			return fmt.Errorf("sweep: interrupted at round %d: %w", e.res.Rounds, cerr)
		}
		if len(e.classes) == 0 && len(e.pos) == 0 {
			return nil
		}
		var active []int
		for i, cls := range e.classes {
			if !fullRound && !e.anyDirty(cls) {
				continue
			}
			active = append(active, i)
		}
		e.res.Rounds++
		for i := range e.rep {
			e.rep[i] = int32(i)
		}
		for _, cls := range e.classes {
			for _, m := range cls[1:] {
				e.rep[m] = cls[0]
			}
		}
		chunks := e.makeChunks(active)
		results, err := parexec.Map(ctx, e.opt.Workers, chunks,
			func(ctx context.Context, _ int, ch chunk) (chunkResult, error) {
				return e.runChunk(ctx, ch)
			})
		if err != nil {
			return fmt.Errorf("sweep: round %d: %w", e.res.Rounds, err)
		}
		// Index-ordered merge: identical at any worker width.
		var cexes []*cex
		var unknowns []int32
		var poFail error
		poUnknown := 0
		for _, cr := range results {
			cexes = append(cexes, cr.cexes...)
			unknowns = append(unknowns, cr.unknowns...)
			poUnknown += cr.poUnknown
			if cr.poFail != nil && poFail == nil {
				poFail = cr.poFail
			}
			e.res.Cexes += len(cr.cexes)
			e.res.Unknowns += len(cr.unknowns) + cr.poUnknown
			e.res.SatCalls += cr.solves
			e.res.Conflicts += cr.conflicts
			e.res.Learned += cr.learned
			e.res.Structural += cr.structural
		}
		if poFail != nil {
			return poFail
		}
		if len(cexes) == 0 && len(unknowns) == 0 && poUnknown == 0 {
			if fullRound {
				return nil // a fully UNSAT full round: the partition is proven
			}
			fullRound = true
			continue
		}
		fullRound = false
		e.dirty = make(map[int32]bool)
		progress := false
		for i, c := range cexes {
			if e.replay(c, mix64(simSeed, uint64(e.res.Rounds)<<20|uint64(i))) {
				progress = true
			}
		}
		for _, m := range unknowns {
			if e.dropMember(m) {
				progress = true
			}
		}
		if !progress || e.res.Rounds > maxRounds {
			// Only output obligations are failing and the invariant
			// language (node equivalences) cannot be strengthened further.
			return ErrUnknown
		}
	}
}

func (e *engine) anyDirty(cls []int32) bool {
	for _, m := range cls {
		if e.dirty[m] {
			return true
		}
	}
	return false
}

// dropMember removes an abandoned obligation's member from its class
// unless refinement already separated it from the representative.
func (e *engine) dropMember(m int32) bool {
	for ci, cls := range e.classes {
		for mi, id := range cls {
			if id != m || mi == 0 {
				continue
			}
			if len(cls) <= 2 {
				e.classes = append(e.classes[:ci], e.classes[ci+1:]...)
			} else {
				e.classes[ci] = append(cls[:mi:mi], cls[mi+1:]...)
			}
			for _, s := range cls {
				e.dirty[s] = true
			}
			return true
		}
	}
	return false
}

// result maps the converged node partition onto latch indices.
func (e *engine) result() *Result {
	res := &e.res
	for _, cls := range e.classes {
		res.NodeEquivs += len(cls) - 1
		var idxs []int
		hasConst := false
		for _, m := range cls {
			if m == 0 {
				hasConst = true
				continue
			}
			if li, ok := e.latchIdxOf[m]; ok {
				idxs = append(idxs, li)
			}
		}
		if hasConst {
			res.Const = append(res.Const, idxs...)
		}
		if len(idxs) >= 2 {
			res.Classes = append(res.Classes, idxs)
		}
	}
	return res
}

func mix64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
