// Package core implements the paper's contribution: performance-driven
// resynthesis by exploiting retiming-induced state register equivalence
// (Algorithm 1). Operating on the delay-critical path of a sequential
// circuit, it (1) makes the path fanout-free by gate duplication,
// (2) forward-retimes the registers feeding the path across their fanout
// stems — inducing register equivalences recorded as the don't-care set
// DCret, (3) forward-retimes registers across the path gates, computing
// initial states, (4) simplifies the relocated next-state logic using
// DCret, and (5) recovers registers with constrained min-area retiming
// under the achieved delay. Delays follow timing.PinDelay: unit delay on an
// unmapped network (the paper's worked example), library gate delay on a
// mapped one (Table I).
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dontcare"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/retime"
	"repro/internal/timing"
)

// Options configures the resynthesis.
type Options struct {
	// KeepHarm keeps the resynthesized circuit even when its cycle time
	// regressed (the paper's reported behaviour on two benchmarks). When
	// false the original network is returned instead.
	KeepHarm bool
	// SkipMinArea disables the constrained min-area post-pass (ablation).
	SkipMinArea bool
	// DisableDCRet skips the don't-care simplification (ablation — the
	// paper: "without the don't care set no simplification could have
	// been achieved at all").
	DisableDCRet bool
	// Tracer receives per-pass spans and transformation counters (nil:
	// no tracing, zero overhead).
	Tracer *obs.Tracer
}

// Result reports what the resynthesis did.
type Result struct {
	// Network is the resynthesized circuit (the original when !Applied).
	Network *network.Network
	// Applied tells whether the technique restructured the circuit.
	Applied bool
	// Reason explains a non-application.
	Reason string
	// PrefixK is the number of atomic fanout-stem moves: the delayed-
	// replacement prefix length for verification.
	PrefixK int
	// Simplified counts cones/nodes improved with DCret.
	Simplified int
	// Duplicated counts gates duplicated for fanout-freedom.
	Duplicated int
	// ForwardMoves counts forward retimings across gates.
	ForwardMoves int
	// LitsSaved is the SOP-literal reduction achieved by the DCret
	// simplification step (0 when the step did not fire).
	LitsSaved                 int
	PeriodBefore, PeriodAfter float64
	RegsBefore, RegsAfter     int
}

// Resynthesize runs one pass of Algorithm 1 on a copy of the network.
// With Options.Tracer set it reports a "core.resynthesize" span whose
// transformation counters (gates_duplicated, stems_split, dcret_pairs,
// regs_forward_moved, cones_simplified, lits_saved) are emitted only when
// the pass applies, so aggregated counters always describe the returned
// circuit; a declined pass records resyn_declined instead. The Algorithm 1
// steps (timing analysis, path retiming, DCret simplification, min-area
// recovery) check ctx between phases and return a typed guard budget error
// once the deadline passes.
func Resynthesize(ctx context.Context, n *network.Network, opt Options) (*Result, error) {
	sp := opt.Tracer.Begin("core.resynthesize")
	defer sp.End()
	res, err := resynthesize(ctx, n, opt)
	if err != nil {
		sp.Add("resyn_error", 1)
		return nil, err
	}
	if res.Applied {
		sp.Add("gates_duplicated", int64(res.Duplicated))
		// stems_split counts atomic fanout-stem moves: a stem with m
		// consumers splits into m registers = m-1 moves. dcret_pairs is
		// the same quantity seen as induced equivalences, and both equal
		// the delayed-replacement prefix PrefixK.
		sp.Add("stems_split", int64(res.PrefixK))
		sp.Add("dcret_pairs", int64(res.PrefixK))
		sp.Add("regs_forward_moved", int64(res.ForwardMoves))
		sp.Add("cones_simplified", int64(res.Simplified))
		if res.LitsSaved > 0 {
			sp.Add("lits_saved", int64(res.LitsSaved))
		}
	} else {
		sp.Add("resyn_declined", 1)
	}
	return res, nil
}

func resynthesize(ctx context.Context, n *network.Network, opt Options) (*Result, error) {
	tr := opt.Tracer
	res := &Result{Network: n, RegsBefore: len(n.Latches), RegsAfter: len(n.Latches)}
	if cerr := guard.Check(ctx, "core.resynthesize"); cerr != nil {
		return nil, cerr
	}
	st := tr.Begin("sta")
	sta, err := timing.Analyze(n)
	if err != nil {
		return nil, err
	}
	res.PeriodBefore = sta.Period
	res.PeriodAfter = sta.Period

	work := n.Clone()
	wsta, err := timing.Analyze(work)
	if err != nil {
		return nil, err
	}
	_, path := wsta.CriticalPath()
	st.End()
	if len(path) == 0 {
		res.Reason = "no combinational critical path"
		return res, nil
	}

	// Step 1: make the critical path fanout-free by node duplication,
	// walking backward from the final connection of the longest path.
	st = tr.Begin("fanout_free")
	for i := len(path) - 2; i >= 0; i-- {
		if work.NumFanouts(path[i]) <= 1 {
			continue
		}
		dup := work.Duplicate(path[i])
		work.ReplaceFanin(path[i+1], path[i], dup)
		path[i] = dup
		res.Duplicated++
	}
	st.End()

	// Step 2: forward retime the registers fanning out to the path across
	// their fanout stems, recording the induced equivalences.
	st = tr.Begin("stem_retime")
	classes := dontcare.New()
	seen := make(map[*network.Latch]bool)
	var stemRegs []*network.Latch
	for _, v := range path {
		for _, fi := range v.Fanins {
			if fi.Kind != network.KindLatchOut {
				continue
			}
			l := work.LatchOfOutput(fi)
			if l != nil && !seen[l] {
				seen[l] = true
				stemRegs = append(stemRegs, l)
			}
		}
	}
	for _, l := range stemRegs {
		if work.NumFanouts(l.Output) < 2 {
			continue
		}
		created, err := retime.SplitFanoutStem(work, l)
		if err != nil {
			return nil, err
		}
		if len(created) > 1 {
			classes.AddClass(created)
			res.PrefixK += len(created) - 1
		}
	}
	st.End()
	if classes.NumClasses() == 0 {
		// "If no retimings across fanout stems, no DCret created, so the
		// circuit cannot be resynthesized by our technique."
		res.Reason = "critical path has no multiple-fanout registers to retime across stems"
		res.PrefixK = 0
		return res, nil
	}

	// Step 3: the retiming engine — forward retime across the critical
	// path nodes until no node is retimable.
	st = tr.Begin("path_retime")
	// The pass count is bounded by the path length: on feedback rings
	// whose side inputs are all registers, unbounded iteration would
	// circulate registers forever (the engine's O(n²) bound in the paper).
	engineRegs := make(map[*network.Latch]bool)
	for pass := 0; pass < len(path); pass++ {
		if cerr := guard.Check(ctx, "core.resynthesize"); cerr != nil {
			return nil, fmt.Errorf("core: path retiming interrupted at pass %d: %w", pass, cerr)
		}
		progress := false
		for _, v := range path {
			if work.FindNode(v.Name) != v {
				continue
			}
			if !retime.ForwardRetimable(work, v) {
				continue
			}
			nl, err := retime.Forward(work, v)
			if err != nil {
				return nil, err
			}
			engineRegs[nl] = true
			res.ForwardMoves++
			progress = true
		}
		if !progress {
			break
		}
	}
	classes.Prune(work)
	st.End()

	// Step 4: simplify the restructured next-state logic using DCret,
	// with local re-mapping (cone collapse) of the logic relocated behind
	// the engine-created registers.
	if cerr := guard.Check(ctx, "core.resynthesize"); cerr != nil {
		return nil, cerr
	}
	if !opt.DisableDCRet {
		st = tr.Begin("dcret_simplify")
		litsIn := work.NumLits()
		res.Simplified = simplifyWithDCRet(work, classes, engineRegs)
		if d := litsIn - work.NumLits(); d > 0 {
			res.LitsSaved = d
		}
		st.End()
	}
	work.SweepLatches()
	classes.Prune(work)

	// Step 5: constrained min-area retiming under the achieved delay.
	p, err := timing.Period(work)
	if err != nil {
		return nil, err
	}
	if cerr := guard.Check(ctx, "core.resynthesize"); cerr != nil {
		return nil, cerr
	}
	if !opt.SkipMinArea {
		if ma, _, err := retime.MinAreaUnderPeriod(ctx, work, p, tr); err == nil {
			if q, err2 := timing.Period(ma); err2 == nil && q <= p+1e-9 {
				work = ma
			}
		}
		retime.MergeSiblingRegisters(work)
		work.SweepLatches()
	}
	p, err = timing.Period(work)
	if err != nil {
		return nil, err
	}
	if err := work.Check(); err != nil {
		return nil, fmt.Errorf("core: resynthesized network invalid: %w", err)
	}
	if p >= res.PeriodBefore && !opt.KeepHarm {
		res.Reason = fmt.Sprintf("no cycle-time improvement (%.2f -> %.2f)", res.PeriodBefore, p)
		// The original network is returned: no stems were split in it, so
		// the delayed-replacement prefix (and DCret counters) reset.
		res.PrefixK = 0
		return res, nil
	}
	res.Network = work
	res.Applied = true
	res.PeriodAfter = p
	res.RegsAfter = len(work.Latches)
	return res, nil
}

// simplifyWithDCRet collapses the next-state cones (and PO cones) whose
// support contains equivalent registers and minimizes them against DCret;
// nodes whose cones are too large fall back to per-node simplification.
func simplifyWithDCRet(work *network.Network, classes *dontcare.Classes, engineRegs map[*network.Latch]bool) int {
	improved := 0
	// Collect the distinct cone roots: latch drivers and PO drivers.
	// Drivers of engine-created registers additionally qualify for
	// DC-less collapse ("local node re-mapping" of the relocated block).
	// Roots are collected in latch, then PO order, and sorted below.
	var roots []*network.Node
	isRoot := make([]bool, work.NumIDs())
	relocated := make([]bool, work.NumIDs())
	addRoot := func(v *network.Node) {
		if v.Kind == network.KindLogic && !isRoot[v.ID] {
			isRoot[v.ID] = true
			roots = append(roots, v)
		}
	}
	for _, l := range work.Latches {
		addRoot(l.Driver)
		if engineRegs[l] && l.Driver.Kind == network.KindLogic {
			relocated[l.Driver.ID] = true
		}
	}
	for _, p := range work.POs {
		addRoot(p.Driver)
	}
	// Deepest cones first: a deep cone still sees the equivalent register
	// pairs in its support; once an enclosed shallow cone is rewritten
	// with the equivalence, the pair may vanish from enclosing supports.
	sta, err := timing.Analyze(work)
	if err != nil {
		return 0
	}
	sort.Slice(roots, func(i, j int) bool {
		ai, aj := sta.Arrival[roots[i].ID], sta.Arrival[roots[j].ID]
		if ai != aj {
			return ai > aj
		}
		return roots[i].Name < roots[j].Name
	})
	var cc coneCollapser
	for _, root := range roots {
		if work.FindNode(root.Name) != root {
			continue // replaced during an earlier iteration
		}
		support, f, ok := cc.collapse(work, root)
		if !ok {
			continue
		}
		dc := classes.DCOver(work, support)
		if dc == nil && !relocated[root.ID] {
			continue
		}
		s := logic.Simplify(f, dc)
		// Replacement criterion: with DCret, any literal reduction of the
		// collapsed form counts; for a relocated block without DC pairs,
		// the collapse must beat the cone's total cost to qualify as a
		// useful local re-mapping.
		bound := f.NumLits()
		if dc == nil {
			bound = cc.cost()
		}
		if s.NumLits() >= bound {
			continue
		}
		nn := work.AddLogic(root.Name+"_rs", support, s)
		work.TrimFanins(nn)
		work.RedirectConsumers(root, nn)
		work.Sweep()
		improved++
	}
	// Per-node pass over everything that still reads equivalent registers.
	for _, v := range work.Nodes() {
		if v.Kind == network.KindLogic && classes.SimplifyNodeLocal(work, v) {
			improved++
		}
	}
	return improved
}

// The bounds of cone collapsing in DCret simplification: a cone whose
// source support exceeds maxConeSupport, or whose intermediate covers
// exceed maxConeCubes cubes, is left to the per-node pass.
const (
	maxConeSupport = 12
	maxConeCubes   = 512
)

// coneCollapser flattens combinational cones, keeping its per-node state
// in ID-indexed slices that are reused across cones: stamp[id] == epoch
// marks a node of the current cone, whose val and neg (its complement,
// built on demand) are valid. cone holds the logic nodes of the last
// cone collapsed.
type coneCollapser struct {
	epoch    uint32
	stamp    []uint32
	val, neg []*logic.Cover
	cone     []*network.Node
}

// cost sums the SOP literal counts of the last collapsed cone's nodes.
func (cc *coneCollapser) cost() int {
	total := 0
	for _, v := range cc.cone {
		total += v.Func.NumLits()
	}
	return total
}

// collapse flattens the combinational cone of root into a single cover
// over its source support (register outputs and PIs), within the
// collapsing bounds.
func (cc *coneCollapser) collapse(work *network.Network, root *network.Node) ([]*network.Node, *logic.Cover, bool) {
	if k := work.NumIDs(); k > len(cc.stamp) {
		k += k / 2 // headroom for the nodes the caller adds
		cc.stamp, cc.val, cc.neg = make([]uint32, k), make([]*logic.Cover, k), make([]*logic.Cover, k)
		cc.epoch = 0
	}
	cc.epoch++
	// Gather cone and support.
	var support []*network.Node
	cone := cc.cone[:0]
	var walk func(v *network.Node) bool
	walk = func(v *network.Node) bool {
		if cc.stamp[v.ID] == cc.epoch {
			return true
		}
		cc.stamp[v.ID] = cc.epoch
		if v.IsSource() {
			support = append(support, v)
			return len(support) <= maxConeSupport
		}
		for _, fi := range v.Fanins {
			if !walk(fi) {
				return false
			}
		}
		cone = append(cone, v) // post-order = topological within cone
		return true
	}
	ok := walk(root)
	if cc.cone = cone; !ok {
		return nil, nil, false
	}
	m := len(support)
	val, neg := cc.val, cc.neg
	for i, s := range support {
		c := logic.NewCover(m)
		cube := logic.NewCube(m)
		cube.SetLit(i, logic.LitPos)
		c.Add(cube)
		val[s.ID], neg[s.ID] = c, nil
	}
	getNeg := func(x *network.Node) *logic.Cover {
		if neg[x.ID] == nil {
			neg[x.ID] = val[x.ID].Complement()
		}
		return neg[x.ID]
	}
	for _, v := range cone {
		f := logic.Zero(m)
		for _, c := range v.Func.Cubes {
			cur := logic.One(m)
			for pin := 0; pin < c.N; pin++ {
				var t *logic.Cover
				switch c.Lit(pin) {
				case logic.LitPos:
					t = val[v.Fanins[pin].ID]
				case logic.LitNeg:
					t = getNeg(v.Fanins[pin])
				default:
					continue
				}
				cur = logic.And(cur, t)
				if len(cur.Cubes) > maxConeCubes {
					return nil, nil, false
				}
				if len(cur.Cubes) == 0 {
					break
				}
			}
			f = logic.Or(f, cur)
			if len(f.Cubes) > maxConeCubes {
				return nil, nil, false
			}
		}
		f.Scc()
		val[v.ID], neg[v.ID] = f, nil
	}
	out := logic.Minimize(val[root.ID])
	return support, out, true
}

// maxPasses bounds the Algorithm 1 passes of ResynthesizeIterate.
const maxPasses = 3

// ResynthesizeIterate applies Resynthesize repeatedly (each pass attacks
// the then-current critical path) until no further cycle-time improvement
// or maxPasses passes. PrefixK accumulates across passes. ctx is checked
// before every pass and inside each pass's phases.
func ResynthesizeIterate(ctx context.Context, n *network.Network, opt Options) (*Result, error) {
	sp := opt.Tracer.Begin("core.resynthesize_iterate")
	defer sp.End()
	cur := n
	var total *Result
	for pass := 0; pass < maxPasses; pass++ {
		r, err := Resynthesize(ctx, cur, opt)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = r
		} else if r.Applied {
			total.PrefixK += r.PrefixK
			total.Simplified += r.Simplified
			total.Duplicated += r.Duplicated
			total.ForwardMoves += r.ForwardMoves
			total.LitsSaved += r.LitsSaved
			total.PeriodAfter = r.PeriodAfter
			total.RegsAfter = r.RegsAfter
			total.Network = r.Network
			total.Applied = true
		}
		if !r.Applied || r.PeriodAfter >= r.PeriodBefore {
			break
		}
		cur = r.Network
	}
	if total.Network == nil {
		total.Network = n
	}
	return total, nil
}
