// Package flows implements the three evaluation flows of Table I:
//
//  1. script.delay — technology-independent delay optimization + minimum-
//     delay technology mapping;
//  2. script.delay + retiming + comb. opt. — conventional min-period
//     retiming followed by combinational re-optimization using
//     retiming-induced external don't cares extracted by implicit state
//     enumeration, then remapping;
//  3. script.delay + resynthesis — the paper's Algorithm 1 applied to the
//     mapped circuit, then remapping.
//
// Every flow reports the Table I metrics (register count, clock period,
// mapped area) and carries the verification prefix for delayed-replacement
// equivalence checking.
//
// Every pass runs transactionally under internal/guard: it sees a private
// clone of the flow network under the configured deadline, panics are
// contained at the pass boundary, and an invalid or non-equivalent output
// rolls the flow back to the last known-good network with a Table-I-style
// footnote in Metrics.Note. A flow therefore either returns a valid network
// (possibly the untouched input, with a note) or a typed guard error —
// never a corrupted result, and never a raw panic.
package flows

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/algebraic"
	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/mapper"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/retime"
	"repro/internal/seqverify"
	"repro/internal/sweep"
	"repro/internal/timing"
)

// Metrics are the per-circuit Table I numbers.
type Metrics struct {
	Regs int
	Clk  float64
	Area float64
	// Note records non-applicability or fallbacks ("retiming failed",
	// "not resynthesizable", …), mirroring the paper's footnotes.
	Note string
}

func (m Metrics) String() string {
	s := fmt.Sprintf("reg=%d clk=%.2f area=%.0f", m.Regs, m.Clk, m.Area)
	if m.Note != "" {
		s += " (" + m.Note + ")"
	}
	return s
}

// Result bundles a flow's output network with its metrics.
type Result struct {
	Net *network.Network
	Metrics
	// PrefixK is the delayed-replacement prefix for verification (0 for
	// flows that preserve safe equivalence).
	PrefixK int
}

// Config configures guarded flow execution. The zero value runs unbounded,
// untraced, and fault-free.
type Config struct {
	// Tracer receives the flow spans plus the guard layer's commit/rollback
	// counters and events (nil: no tracing).
	Tracer *obs.Tracer
	// Budget bounds each flow (Budget.Flow) and each pass within it
	// (Budget.Pass) in wall-clock time; zero fields mean unbounded.
	Budget guard.Budget
	// Inject optionally injects faults per guarded pass (nil: none). It is
	// consulted exactly once per pass invocation.
	Inject guard.Injector
	// Substrate selects the technology-independent representation the
	// flows restructure before mapping: SubstrateSOP (default, also for
	// "") or SubstrateAIG. See substrate.go.
	Substrate string
	// Sweep is read by VerifyVerdict alone: where the product machine
	// exceeds the exact reach limits, verification tries k-induction over
	// it (internal/sweep) before falling back to random simulation. The
	// flows never read it, so a flow's output depends on the circuit and
	// the substrate only.
	Sweep bool
}

// fault consults the injector once for a pass invocation.
func (c Config) fault(pass string) guard.Fault {
	if c.Inject == nil {
		return guard.FaultNone
	}
	return c.Inject.Fault(pass)
}

// tx builds the transactional options for one pass invocation with the
// already-resolved fault decision.
func (c Config) tx(f guard.Fault) guard.TxOptions {
	return guard.TxOptions{
		Tracer: c.Tracer,
		Budget: c.Budget,
		Fault:  f,
	}
}

// rollCause extracts the innermost failure of a rolled-back pass for a
// Table-I-style note (the RollbackError wrapper itself is for errors.As).
func rollCause(rep guard.TxReport) error {
	var rb *guard.RollbackError
	if errors.As(rep.Err, &rb) && rb.Cause != nil {
		return rb.Cause
	}
	return rep.Err
}

func measure(n *network.Network, lib *genlib.Library) (Metrics, error) {
	clk, err := timing.Period(n)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Regs: len(n.Latches),
		Clk:  clk,
		Area: mapper.Area(n, lib),
	}, nil
}

// ScriptDelay optimizes and maps a circuit for minimum delay. It records a
// "flow.script_delay" span on cfg.Tracer whose children time the
// restructuring script and the mapper. Both run transactionally under
// cfg.Budget and ctx: a failed script degrades to plain decomposition
// (noted); a failed mapping is a flow failure, since the flow's contract
// is a mapped network.
func ScriptDelay(ctx context.Context, n *network.Network, lib *genlib.Library, cfg Config) (*Result, error) {
	tr := cfg.Tracer
	sp := tr.Begin("flow.script_delay")
	defer sp.End()
	fctx, cancel := cfg.Budget.FlowContext(ctx)
	defer cancel()
	if !KnownSubstrate(cfg.Substrate) {
		return nil, guard.WithClass(
			fmt.Errorf("flows: unknown substrate %q (have %v)", cfg.Substrate, SubstrateNames()),
			guard.ErrClassPermanent)
	}
	note := ""
	optPass := "algebraic.optimize"
	optFn := func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
		if err := algebraic.OptimizeDelay(ctx, work, tr); err != nil {
			return nil, 0, err
		}
		return work, 0, nil
	}
	if cfg.substrate() == SubstrateAIG {
		optPass = "aig.restructure"
		optFn = func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			out, err := aigRestructure(ctx, work, tr)
			return out, 0, err
		}
	}
	w, rep := guard.Tx(fctx, optPass, n, cfg.tx(cfg.fault(optPass)),
		optFn)
	if !rep.Committed {
		note = rep.Note
		// Degraded script: sweep + balanced decomposition still satisfies
		// the mapper's subject-graph contract without the fragile passes.
		w2, rep2 := guard.Tx(fctx, "algebraic.decompose", n, cfg.tx(cfg.fault("algebraic.decompose")),
			func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
				work.Sweep()
				if err := algebraic.DecomposeBalanced(work); err != nil {
					return nil, 0, err
				}
				return work, 0, nil
			})
		if rep2.Committed {
			w = w2
		}
	}
	m, mrep := guard.Tx(fctx, "mapper.map_delay", w, cfg.tx(cfg.fault("mapper.map_delay")),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			mm, err := mapper.MapDelay(ctx, work, lib, tr)
			return mm, 0, err
		})
	if !mrep.Committed {
		return nil, fmt.Errorf("flows: script.delay cannot map: %w", mrep.Err)
	}
	met, err := measure(m, lib)
	if err != nil {
		return nil, err
	}
	met.Note = note
	return &Result{Net: m, Metrics: met}, nil
}

// RetimeCombOpt runs the conventional baseline on a mapped circuit:
// min-period retiming, unreachable-state don't-care extraction by implicit
// state enumeration (past its limits, induction-proven register classes on
// circuits of at most maxSweepDCRegs registers), per-node simplification,
// and remapping. The input should be a ScriptDelay result; it is not
// modified.
//
// It records a "flow.retime_combopt" span on cfg.Tracer over the
// min-period retimer, the implicit state enumeration, the don't-care
// application (dc_nodes_simplified / lits_saved), and the remap; a guard
// revert records flow_reverted. Every pass runs under the guard layer and
// is optional for this flow: a rolled-back retiming or DC extraction keeps
// the previous network and records the paper's footnote, and a rolled-back
// remap degrades to the (already mapped) flow input.
func RetimeCombOpt(ctx context.Context, mappedIn *network.Network, lib *genlib.Library, cfg Config) (*Result, error) {
	tr := cfg.Tracer
	sp := tr.Begin("flow.retime_combopt")
	defer sp.End()
	fctx, cancel := cfg.Budget.FlowContext(ctx)
	defer cancel()
	note := ""
	ret, rep := guard.Tx(fctx, "retime.min_period", mappedIn, cfg.tx(cfg.fault("retime.min_period")),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			r, _, err := retime.MinPeriod(ctx, work, tr)
			return r, 0, err
		})
	if !rep.Committed {
		// The paper: "retiming was either unable to minimize the cycle
		// time, or was unable to preserve/compute the initial states".
		note = "retiming failed: " + rollCause(rep).Error()
	}
	// Combinational optimization with retiming-induced external don't
	// cares. The circuit picks the engine: implicit state enumeration
	// while it fits the reach limits, induction-proven register classes
	// past that wall up to maxSweepDCRegs registers, and above that none
	// (skipped, as it was for SIS on large circuits).
	lim := reach.DefaultLimits
	dcFault := cfg.fault("reach.dc_extract")
	if dcFault == guard.FaultBDDBlowup {
		// Realized here rather than in the runner: blowup is a resource
		// fault of the enumeration engine, triggered via its node budget.
		lim.MaxBDDNodes = 8
	}
	dcNet, dcRep := guard.Tx(fctx, "reach.dc_extract", ret, cfg.tx(dcFault),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			a, rerr := reach.Analyze(ctx, work, lim, tr)
			if rerr != nil {
				if errors.Is(rerr, reach.ErrTooLarge) && len(work.Latches) <= maxSweepDCRegs {
					return work, 0, applySweepDCs(ctx, work, tr)
				}
				return nil, 0, rerr
			}
			st := tr.Begin("apply_unreachable_dcs")
			improved, lits := applyUnreachableDCs(work, a)
			st.Add("dc_nodes_simplified", int64(improved))
			if lits > 0 {
				st.Add("lits_saved", int64(lits))
			}
			st.End()
			return work, 0, nil
		})
	if dcRep.Committed {
		ret = dcNet
	} else if note == "" {
		// The wrapped reach error carries the observed node/iteration
		// numbers (or the latch count), not just "too large".
		note = "DC extraction skipped: " + rollCause(dcRep).Error()
	}
	m, met, _, err := remapTx(fctx, ret, mappedIn, lib, cfg, &note)
	if err != nil {
		return nil, err
	}
	m, met = guardAgainstHarm(mappedIn, lib, m, met, &note, sp)
	met.Note = note
	return &Result{Net: m, Metrics: met}, nil
}

// guardAgainstHarm keeps the flow input when the transformed circuit ended
// up slower (or equally fast but larger) — the "stopped from doing any
// harm" control the paper says it is investigating (Section V). A revert
// is recorded on sp as flow_reverted.
func guardAgainstHarm(input *network.Network, lib *genlib.Library, m *network.Network, met Metrics, note *string, sp *obs.Span) (*network.Network, Metrics) {
	in, err := measure(input, lib)
	if err != nil {
		return m, met
	}
	if met.Clk < in.Clk-1e-9 || (met.Clk < in.Clk+1e-9 && met.Area <= in.Area) {
		return m, met
	}
	sp.Add("flow_reverted", 1)
	if *note == "" {
		*note = "reverted (no gain over input)"
	}
	return input.Clone(), in
}

// remapTx runs bestRemap transactionally. On rollback the flow degrades to
// a clone of its mapped input, which is valid by construction; committed
// reports whether the remapped candidate was adopted.
func remapTx(ctx context.Context, cur, mappedIn *network.Network, lib *genlib.Library, cfg Config, note *string) (m *network.Network, met Metrics, committed bool, err error) {
	m, rep := guard.Tx(ctx, "remap", cur, cfg.tx(cfg.fault("remap")),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			mm, mmet, rerr := bestRemap(ctx, work, lib, cfg)
			if rerr != nil {
				return nil, 0, rerr
			}
			met = mmet
			return mm, 0, nil
		})
	if rep.Committed {
		return m, met, true, nil
	}
	if *note == "" {
		*note = rep.Note
	}
	fallback := mappedIn.Clone()
	fmet, ferr := measure(fallback, lib)
	if ferr != nil {
		return nil, Metrics{}, false, ferr
	}
	return fallback, fmet, false, nil
}

// bestRemap produces the best mapped implementation of a network among
// (a) full re-optimization + mapping (through the configured substrate)
// and (b) plain re-decomposition + mapping, compared by clock then area.
// Re-optimizing an already-mapped netlist is occasionally lossy; keeping
// the better candidate models the "keep the best implementation seen"
// discipline of a real flow. Both candidates are built under ctx: an
// exhausted budget is returned as the typed guard error rather than
// dropping the candidate, so the remap never outlives its deadline.
func bestRemap(ctx context.Context, n *network.Network, lib *genlib.Library, cfg Config) (*network.Network, Metrics, error) {
	tr := cfg.Tracer
	sp := tr.Begin("remap")
	defer sp.End()
	type cand struct {
		net *network.Network
		met Metrics
	}
	var cands []cand
	// try maps one restructured subject graph; only a budget error is
	// fatal, any other failure just drops the candidate.
	try := func(subject *network.Network, err error) error {
		if err == nil {
			var m *network.Network
			if m, err = mapper.MapDelay(ctx, subject, lib, tr); err == nil {
				if met, merr := measure(m, lib); merr == nil {
					cands = append(cands, cand{m, met})
				}
			}
		}
		if errors.Is(err, guard.ErrBudget) {
			return err
		}
		return nil
	}
	full := n.Clone()
	var fullErr error
	if cfg.substrate() == SubstrateAIG {
		full, fullErr = aigRestructure(ctx, full, tr)
	} else {
		fullErr = algebraic.OptimizeDelay(ctx, full, tr)
	}
	if err := try(full, fullErr); err != nil {
		return nil, Metrics{}, err
	}
	plain := n.Clone()
	plain.Sweep()
	if err := try(plain, algebraic.DecomposeBalanced(plain)); err != nil {
		return nil, Metrics{}, err
	}
	sp.Add("remap_candidates", int64(len(cands)))
	if len(cands) == 0 {
		return nil, Metrics{}, fmt.Errorf("flows: no mappable candidate")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.met.Clk < best.met.Clk-1e-9 ||
			(c.met.Clk < best.met.Clk+1e-9 && c.met.Area < best.met.Area) {
			best = c
		}
	}
	return best.net, best.met, nil
}

// maxSweepDCRegs bounds the sweep rung of the retime flow's DC extraction
// by register count. Measured on Table I, sweep DCs lowered the retime
// row's registers on circuits of 19 to 47 registers (SOP s641 19 -> 16
// and s1196 22 -> 21; AIG s344 39 -> 36, s526 47 -> 19 and s1196
// 21 -> 20) but merged none on s5378 (174 registers) on either
// substrate, and on the AIG bench.Large() rows (s9234 and up) they took
// 6-16 s per circuit to merge at most one register.
const maxSweepDCRegs = 64

// applySweepDCs is the DC extraction beyond the exact-reachability wall:
// register equivalence classes proven by induction (internal/sweep) stand
// in for retiming-induced ones. Every non-representative member's fanout
// is rewritten onto its class representative — the substitution xj := xi
// that the (xi ⊕ xj) don't care allows — and registers proven stuck at
// constant 0 are replaced by a constant source, letting Sweep retire the
// dead registers.
func applySweepDCs(ctx context.Context, work *network.Network, tr *obs.Tracer) error {
	st := tr.Begin("sweep.dc_extract")
	defer st.End()
	res, err := sweep.Registers(ctx, work, sweep.Options{Tracer: tr})
	if err != nil {
		return fmt.Errorf("flows: sweep DC extraction: %w", err)
	}
	dead := map[*network.Latch]bool{}
	for _, cls := range res.Classes {
		rep := work.Latches[cls[0]].Output
		for _, li := range cls[1:] {
			work.RedirectConsumers(work.Latches[li].Output, rep)
			dead[work.Latches[li]] = true
		}
	}
	if len(res.Const) > 0 {
		zero := work.FindNode("sweep_zero")
		if zero == nil {
			zero = work.AddConst("sweep_zero", false)
		}
		for _, li := range res.Const {
			work.RedirectConsumers(work.Latches[li].Output, zero)
			dead[work.Latches[li]] = true
		}
	}
	// Latches are never garbage-collected by Sweep (every register is a
	// root), so the now-unread members retire explicitly; their private
	// next-state cones then die in the sweep.
	var retire []*network.Latch
	for _, l := range work.Latches {
		if dead[l] && work.NumFanouts(l.Output) == 0 {
			retire = append(retire, l)
		}
	}
	for _, l := range retire {
		work.RemoveLatch(l)
	}
	merged := len(retire)
	if merged > 0 {
		work.Sweep()
	}
	st.Add("sweep_regs_merged", int64(merged))
	return nil
}

// applyUnreachableDCs simplifies every node against the unreachable-state
// don't cares projected onto its register fanins, returning the number of
// nodes improved and the total SOP literals saved.
func applyUnreachableDCs(n *network.Network, a *reach.Analysis) (improvedNodes, litsSaved int) {
	latchIdx := make(map[*network.Node]int, len(n.Latches))
	for i, l := range n.Latches {
		latchIdx[l.Output] = i
	}
	for _, v := range n.Nodes() {
		if v.Kind != network.KindLogic {
			continue
		}
		var regs []int      // latch indices among fanins
		var positions []int // fanin positions of those latches
		for pos, fi := range v.Fanins {
			if li, ok := latchIdx[fi]; ok {
				regs = append(regs, li)
				positions = append(positions, pos)
			}
		}
		if len(regs) < 2 {
			continue
		}
		proj := a.UnreachableDC(regs)
		if proj.IsZeroFunction() {
			continue
		}
		// Express over the node's fanin space.
		varMap := make([]int, len(regs))
		copy(varMap, positions)
		dc := proj.Remap(len(v.Fanins), varMap)
		s := logic.Simplify(v.Func, dc)
		if s.NumLits() < v.Func.NumLits() {
			litsSaved += v.Func.NumLits() - s.NumLits()
			n.SetFunction(v, v.Fanins, s)
			n.TrimFanins(v)
			improvedNodes++
		}
	}
	return improvedNodes, litsSaved
}

// Resynthesis runs the paper's flow on a mapped circuit: Algorithm 1
// (iterated), then remapping. The input should be a ScriptDelay result.
//
// It records a "flow.resynthesis" span on cfg.Tracer over the core
// Algorithm 1 passes, the guiding min-period retiming, and the remap; a
// guard revert records flow_reverted and zeroes the prefix. Every pass
// runs under the guard layer: a rolled-back Algorithm 1 keeps the input
// (noted), a rolled-back guide retiming keeps the restructured network
// silently (it is opportunistic, like the keep-only-if-better rule), and a
// rolled-back remap degrades to the mapped input. The delayed-replacement
// prefix is zeroed whenever the returned network is not the committed
// resynthesis result.
func Resynthesis(ctx context.Context, mappedIn *network.Network, lib *genlib.Library, cfg Config) (*Result, error) {
	tr := cfg.Tracer
	sp := tr.Begin("flow.resynthesis")
	defer sp.End()
	fctx, cancel := cfg.Budget.FlowContext(ctx)
	defer cancel()
	prefix := 0
	declined := ""
	w, rep := guard.Tx(fctx, "core.resynthesize", mappedIn, cfg.tx(cfg.fault("core.resynthesize")),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			res, err := core.ResynthesizeIterate(ctx, work, core.Options{Tracer: tr})
			if err != nil {
				return nil, 0, err
			}
			if !res.Applied {
				declined = "not resynthesizable: " + res.Reason
			}
			prefix = res.PrefixK
			return res.Network, res.PrefixK, nil
		})
	note := declined
	if !rep.Committed {
		prefix = 0
		note = rep.Note
	}
	// "Our approach restructures the circuit and then guides retiming to
	// achieve a cycle-time reduction": after the DCret restructuring, a
	// conventional min-period retiming pass balances the remaining paths.
	// It is kept only when it helps and the initial states work out.
	g, grep := guard.Tx(fctx, "retime.guide", w, cfg.tx(cfg.fault("retime.guide")),
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			ret, info, rerr := retime.MinPeriod(ctx, work, tr)
			if rerr != nil {
				return nil, 0, rerr
			}
			if info.PeriodAfter < info.PeriodBefore {
				return ret, 0, nil
			}
			return work, 0, nil
		})
	if grep.Committed {
		w = g
	}
	m, met, committed, err := remapTx(fctx, w, mappedIn, lib, cfg, &note)
	if err != nil {
		return nil, err
	}
	if !committed {
		prefix = 0 // degraded to the untouched input
	}
	before := m
	m, met = guardAgainstHarm(mappedIn, lib, m, met, &note, sp)
	if m != before {
		prefix = 0 // reverted to the untouched input
	}
	met.Note = note
	return &Result{Net: m, Metrics: met, PrefixK: prefix}, nil
}

// The spot-check budget of VerifyVerdict: the bit-parallel random
// simulation run when neither exact reachability nor induction can decide.
const (
	verifyCycles = 3000
	verifySeed   = 1999
)

// VerifyVerdict checks a flow result against the source circuit and
// reports how the equivalence was established. It is the one verification
// ladder: every command, the service and the benchmark call it. It tries
// exact product-machine equivalence with delayed replacement first, within
// reach.DefaultLimits: verdict seqverify.VerdictExact. With cfg.Sweep,
// circuits beyond the exact limits are proved by k-induction over the
// product machine: seqverify.VerdictInduction. When both engines are out
// of reach, a verifyCycles-cycle random simulation is the only check:
// VerdictSpotChecked, returned together with the simulation's error (nil
// when no mismatch showed). Any other error is a refutation, a malformed
// pair, or a typed guard budget error: ctx is checked at every image step
// of the traversal, so a budget exhausted mid-proof surfaces as
// errors.Is(err, guard.ErrBudget), not as a verification failure.
func VerifyVerdict(ctx context.Context, src *network.Network, r *Result, cfg Config) (string, error) {
	err := seqverify.Equivalent(ctx, src, r.Net, seqverify.Options{Delay: r.PrefixK}, cfg.Tracer)
	if err == nil {
		return string(seqverify.VerdictExact), nil
	}
	if !errors.Is(err, reach.ErrTooLarge) {
		return "", err
	}
	if cfg.Sweep {
		_, err := sweep.ProveEquivalent(ctx, src, r.Net, r.PrefixK, sweep.Options{Tracer: cfg.Tracer})
		if err == nil {
			return string(seqverify.VerdictInduction), nil
		}
		if !errors.Is(err, sweep.ErrUnknown) {
			return "", err
		}
	}
	return VerdictSpotChecked, bitsim.RandomEquivalent(src, r.Net, r.PrefixK, verifyCycles, verifySeed,
		bitsim.Options{Tracer: cfg.Tracer})
}

// VerdictSpotChecked marks a result vouched for only by bounded random
// simulation (see VerifyVerdict).
const VerdictSpotChecked = "spot-checked"

// RunAll executes the three flows of Table I on one source circuit. Each
// flow contributes its own top-level span (flow.script_delay,
// flow.retime_combopt, flow.resynthesis) to cfg.Tracer. Each flow
// additionally runs under flow-level panic containment (belt and braces
// over the per-pass runner), so a defect anywhere in a flow surfaces as a
// typed error on that flow instead of killing the process.
func RunAll(ctx context.Context, src *network.Network, lib *genlib.Library, cfg Config) (sd, ret, rsyn *Result, err error) {
	run := func(name string, f func(ctx context.Context) error) error {
		return guard.Run(ctx, name, src, f)
	}
	if err = run("flow.script_delay", func(ctx context.Context) error {
		var ferr error
		sd, ferr = ScriptDelay(ctx, src, lib, cfg)
		return ferr
	}); err != nil {
		return nil, nil, nil, err
	}
	if err = run("flow.retime_combopt", func(ctx context.Context) error {
		var ferr error
		ret, ferr = RetimeCombOpt(ctx, sd.Net, lib, cfg)
		return ferr
	}); err != nil {
		return nil, nil, nil, err
	}
	if err = run("flow.resynthesis", func(ctx context.Context) error {
		var ferr error
		rsyn, ferr = Resynthesis(ctx, sd.Net, lib, cfg)
		return ferr
	}); err != nil {
		return nil, nil, nil, err
	}
	return sd, ret, rsyn, nil
}
