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
	onPath := make(map[*network.Node]bool, len(path))
	for _, v := range path {
		onPath[v] = true
	}
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
	sweepDanglingLatches(work)
	work.Sweep()
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
		sweepDanglingLatches(work)
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
	rootSet := make(map[*network.Node]bool)
	relocated := make(map[*network.Node]bool)
	for _, l := range work.Latches {
		if l.Driver.Kind == network.KindLogic {
			rootSet[l.Driver] = true
			if engineRegs[l] {
				relocated[l.Driver] = true
			}
		}
	}
	for _, p := range work.POs {
		if p.Driver.Kind == network.KindLogic {
			rootSet[p.Driver] = true
		}
	}
	// Deepest cones first: a deep cone still sees the equivalent register
	// pairs in its support; once an enclosed shallow cone is rewritten
	// with the equivalence, the pair may vanish from enclosing supports.
	sta, err := timing.Analyze(work)
	if err != nil {
		return 0
	}
	roots := make([]*network.Node, 0, len(rootSet))
	for r := range rootSet {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		ai, aj := sta.Arrival[roots[i]], sta.Arrival[roots[j]]
		if ai != aj {
			return ai > aj
		}
		return roots[i].Name < roots[j].Name
	})
	for _, root := range roots {
		if work.FindNode(root.Name) != root {
			continue // replaced during an earlier iteration
		}
		support, f, ok := collapseCone(work, root)
		if !ok {
			continue
		}
		dc := classes.DCOver(work, support)
		if dc == nil && !relocated[root] {
			continue
		}
		s := logic.Simplify(f, dc)
		// Replacement criterion: with DCret, any literal reduction of the
		// collapsed form counts; for a relocated block without DC pairs,
		// the collapse must beat the cone's total cost to qualify as a
		// useful local re-mapping.
		if dc != nil {
			if s.NumLits() >= f.NumLits() {
				continue
			}
		} else {
			if s.NumLits() >= coneCost(work, root) {
				continue
			}
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

// coneCost sums the SOP literal counts of the cone's nodes.
func coneCost(work *network.Network, root *network.Node) int {
	total := 0
	for v := range work.TransitiveFanin(root) {
		if v.Kind == network.KindLogic {
			total += v.Func.NumLits()
		}
	}
	return total
}

// The bounds of cone collapsing in DCret simplification: a cone whose
// source support exceeds maxConeSupport, or whose intermediate covers
// exceed maxConeCubes cubes, is left to the per-node pass.
const (
	maxConeSupport = 12
	maxConeCubes   = 512
)

// collapseCone flattens the combinational cone of root into a single cover
// over its source support (register outputs and PIs), within the
// collapsing bounds.
func collapseCone(work *network.Network, root *network.Node) ([]*network.Node, *logic.Cover, bool) {
	// Gather cone and support.
	var support []*network.Node
	supIdx := make(map[*network.Node]int)
	var cone []*network.Node
	visited := make(map[*network.Node]bool)
	var walk func(v *network.Node) bool
	walk = func(v *network.Node) bool {
		if visited[v] {
			return true
		}
		visited[v] = true
		if v.IsSource() {
			supIdx[v] = len(support)
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
	if !walk(root) {
		return nil, nil, false
	}
	m := len(support)
	val := make(map[*network.Node]*logic.Cover, len(cone)+m)
	neg := make(map[*network.Node]*logic.Cover)
	for _, s := range support {
		c := logic.NewCover(m)
		cube := logic.NewCube(m)
		cube.SetLit(supIdx[s], logic.LitPos)
		c.Add(cube)
		val[s] = c
	}
	getNeg := func(x *network.Node) *logic.Cover {
		if g, ok := neg[x]; ok {
			return g
		}
		g := val[x].Complement()
		neg[x] = g
		return g
	}
	for _, v := range cone {
		f := logic.Zero(m)
		for _, c := range v.Func.Cubes {
			cur := logic.One(m)
			for pin := 0; pin < c.N; pin++ {
				var t *logic.Cover
				switch c.Lit(pin) {
				case logic.LitPos:
					t = val[v.Fanins[pin]]
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
		val[v] = f
	}
	out := logic.Minimize(val[root])
	return support, out, true
}

// sweepDanglingLatches removes registers whose outputs feed nothing,
// repeating until stable (a removed register may strand its driver chain).
func sweepDanglingLatches(work *network.Network) int {
	removed := 0
	for {
		progress := false
		for _, l := range append([]*network.Latch(nil), work.Latches...) {
			if work.NumFanouts(l.Output) == 0 {
				work.RemoveLatch(l)
				removed++
				progress = true
			}
		}
		work.Sweep()
		if !progress {
			return removed
		}
	}
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
