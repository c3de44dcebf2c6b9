package main

// The -aig-bench mode: substrate comparison for the technology-independent
// restructuring step. The SOP substrate's two-level passes (dominated by
// eliminate's cover substitution) grow superlinearly with circuit size;
// the AIG substrate (convert + strash + NPN cut rewriting + balance) stays
// near-linear. This mode documents the raw walls, what that difference
// means under a guard deadline (which substrate's restructuring pass still
// commits on the s38417-class suite), and — new in bench_aig/v2 — the
// rewrite loop itself: serial vs parallel restructure walls, node/level
// deltas over the sweep+balance baseline, worker-width determinism, and
// the mapped clock of base vs rewritten subject networks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/aig"
	"repro/internal/algebraic"
	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/mapper"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/timing"
)

// aigStats describes the structurally hashed AIG built from the source
// circuit by the -substrate=aig restructuring (convert, sweep, balance),
// plus the k-feasible-cut LUT covering depths as a mapper-independent
// quality signal.
type aigStats struct {
	Nodes  int `json:"nodes"`  // AND vertices after sweep + balance
	Levels int `json:"levels"` // AND depth after balancing
	// StrashHits counts And() calls answered from the structural hash
	// table across both the conversion and the balancing rebuild;
	// StrashHitRate is hits over all And() constructions (hits + inserts).
	StrashHits    int64   `json:"strash_hits"`
	StrashHitRate float64 `json:"strash_hit_rate"`
	BuildMS       float64 `json:"build_ms"`
	Lut4          int     `json:"lut4_luts,omitempty"`
	Lut4Depth     int     `json:"lut4_depth,omitempty"`
	Lut6          int     `json:"lut6_luts,omitempty"`
	Lut6Depth     int     `json:"lut6_depth,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// aigFlowReport is one script.delay run on one substrate. SpanMS carries
// the per-pass walls recovered from the trace stream, so the substrate
// step ("algebraic.optimize" vs "aig.restructure") and the shared mapper
// can be compared individually.
type aigFlowReport struct {
	Regs   int                `json:"regs"`
	Clk    float64            `json:"clk"`
	Area   float64            `json:"area"`
	Note   string             `json:"note,omitempty"`
	WallMS float64            `json:"wall_ms"`
	SpanMS map[string]float64 `json:"span_ms"`
	Error  string             `json:"error,omitempty"`
}

// aigGuardReport is one restructuring pass run transactionally under the
// -aig-budget deadline: Committed false means the pass was rolled back —
// on this suite, always because the deadline fired (the note says so).
type aigGuardReport struct {
	Committed bool    `json:"committed"`
	WallMS    float64 `json:"wall_ms"`
	Note      string  `json:"note,omitempty"`
}

// aigRewriteReport is the bench_aig/v2 addition: the full restructuring
// loop (sweep + NPN cut rewriting + balance) measured serial (workers=1)
// and parallel (workers=4), with the rewriter's own counters, a lowered-
// netlist determinism check across worker widths, and the mapped clock of
// the base (sweep+balance only, the v1 pipeline) versus the rewritten
// result. Gomaxprocs records how many cores the walls were measured on —
// on a single-core host the parallel wall cannot beat the serial one and
// the speedup column reads accordingly.
type aigRewriteReport struct {
	// Nodes/Levels describe the restructured AIG (after the rewrite loop);
	// the base sweep+balance numbers live in aigStats.
	Nodes       int   `json:"nodes"`
	Levels      int   `json:"levels"`
	RewriteGain int64 `json:"rewrite_gain"`
	CutsPruned  int64 `json:"cuts_pruned"`
	WaveCount   int64 `json:"wave_count"`
	// SerialMS / ParallelMS are full RestructureAIG walls at workers=1 and
	// workers=ParallelWorkers; Speedup is serial over parallel.
	SerialMS        float64 `json:"serial_ms"`
	ParallelMS      float64 `json:"parallel_ms"`
	ParallelWorkers int     `json:"parallel_workers"`
	Speedup         float64 `json:"speedup,omitempty"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	// Deterministic reports whether the lowered subject netlists are
	// byte-identical across worker widths 1, 4, and 8.
	Deterministic bool `json:"deterministic"`
	// ClkBase / ClkRewrite are the mapped clock periods of the base and
	// rewritten subject networks through the shared genlib mapper.
	// ClkRewrite is the delivered period under the flow's keep-best remap
	// discipline (flows.bestRemap maps both candidates and keeps the
	// faster), so it is never worse than ClkBase.
	ClkBase    float64 `json:"clk_base,omitempty"`
	ClkRewrite float64 `json:"clk_rewrite,omitempty"`
	Error      string  `json:"error,omitempty"`
}

type aigCircuitReport struct {
	Circuit string                   `json:"circuit"`
	Gates   int                      `json:"gates"`
	Latches int                      `json:"latches"`
	Aig     aigStats                 `json:"aig"`
	Rewrite aigRewriteReport         `json:"rewrite"`
	Flows   map[string]aigFlowReport `json:"flows"` // "sop" | "aig"
	// OptSpeedup is the SOP optimize wall over the AIG restructure wall
	// inside the script flows — the substrate step alone, excluding the
	// shared mapper.
	OptSpeedup float64 `json:"opt_speedup,omitempty"`
	// FlowSpeedup is the end-to-end script.delay wall ratio (SOP / AIG).
	FlowSpeedup float64        `json:"flow_speedup,omitempty"`
	GuardSOP    aigGuardReport `json:"guard_sop"`
	GuardAIG    aigGuardReport `json:"guard_aig"`
	Skipped     bool           `json:"skipped,omitempty"`
	Error       string         `json:"error,omitempty"`
}

type aigBenchReport struct {
	Schema   string             `json:"schema"`
	BudgetMS float64            `json:"guard_budget_ms"`
	Circuits []aigCircuitReport `json:"circuits"`
}

// runAigBench compares the SOP and AIG substrates on every circuit and
// writes BENCH_aig.json.
func runAigBench(suite []bench.Circuit, lib *genlib.Library, budget guard.Budget, guardPass time.Duration, workers int, skipLarge bool, out string) {
	reports, err := parexec.Map(context.Background(), workers, suite,
		func(_ context.Context, _ int, c bench.Circuit) (aigCircuitReport, error) {
			return aigBenchCircuit(c, lib, budget, guardPass, skipLarge), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	rep := aigBenchReport{
		Schema:   "bench_aig/v2",
		BudgetMS: float64(guardPass) / float64(time.Millisecond),
	}
	for _, cr := range reports {
		rep.Circuits = append(rep.Circuits, cr)
		status := "ok"
		switch {
		case cr.Skipped:
			status = "skipped"
		case cr.Error != "":
			status = "FAILED: " + cr.Error
		default:
			verdict := func(r aigGuardReport) string {
				if r.Committed {
					return "ok"
				}
				return "DNF"
			}
			det := "det"
			if !cr.Rewrite.Deterministic {
				det = "NONDET"
			}
			status = fmt.Sprintf("aig %d->%d ands L%d->%d gain %d  rw %.1f/%.1fms %s  opt %.1f/%.1fms (%.0fx)  guard sop=%s aig=%s",
				cr.Aig.Nodes, cr.Rewrite.Nodes, cr.Aig.Levels, cr.Rewrite.Levels,
				cr.Rewrite.RewriteGain, cr.Rewrite.SerialMS, cr.Rewrite.ParallelMS, det,
				leafSpanMS(cr.Flows[flows.SubstrateSOP].SpanMS, "algebraic.optimize"),
				leafSpanMS(cr.Flows[flows.SubstrateAIG].SpanMS, "aig.restructure"),
				cr.OptSpeedup, verdict(cr.GuardSOP), verdict(cr.GuardAIG))
		}
		fmt.Printf("%-10s %s\n", cr.Circuit, status)
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d circuits)\n", out, len(rep.Circuits))
}

func aigBenchCircuit(c bench.Circuit, lib *genlib.Library, budget guard.Budget, guardPass time.Duration, skipLarge bool) aigCircuitReport {
	cr := aigCircuitReport{Circuit: c.Name, Flows: map[string]aigFlowReport{}}
	src, err := c.Build()
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.Gates = src.NumLogicNodes()
	cr.Latches = len(src.Latches)
	if skipLarge && cr.Gates > 1000 {
		cr.Skipped = true
		return cr
	}
	var baseSubject *network.Network
	cr.Aig, baseSubject = buildAigStats(src)
	cr.Rewrite = buildRewriteStats(src, baseSubject, lib)
	for _, sub := range []string{flows.SubstrateSOP, flows.SubstrateAIG} {
		cr.Flows[sub] = aigFlowRun(src, lib, budget, sub)
	}
	cr.GuardSOP = guardedRestructure(src, "algebraic.optimize", guardPass,
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			if err := algebraic.OptimizeDelay(ctx, work, nil); err != nil {
				return nil, 0, err
			}
			return work, 0, nil
		})
	cr.GuardAIG = guardedRestructure(src, "aig.restructure", guardPass,
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			out, rerr := flows.RestructureAIG(ctx, work, flows.Config{})
			return out, 0, rerr
		})
	sopOpt := leafSpanMS(cr.Flows[flows.SubstrateSOP].SpanMS, "algebraic.optimize")
	aigRes := leafSpanMS(cr.Flows[flows.SubstrateAIG].SpanMS, "aig.restructure")
	if sopOpt > 0 && aigRes > 0 {
		cr.OptSpeedup = sopOpt / aigRes
	}
	sopWall, aigWall := cr.Flows[flows.SubstrateSOP], cr.Flows[flows.SubstrateAIG]
	if sopWall.Error == "" && aigWall.Error == "" && sopWall.WallMS > 0 && aigWall.WallMS > 0 {
		cr.FlowSpeedup = sopWall.WallMS / aigWall.WallMS
	}
	return cr
}

// buildAigStats measures the AIG construction itself: conversion, sweep,
// balance and the LUT coverings, without any guard machinery. It also
// returns the lowered sweep+balance subject network — the pre-rewrite
// baseline the v2 rewrite columns compare against (nil on error).
func buildAigStats(src *network.Network) (aigStats, *network.Network) {
	st := aigStats{}
	start := time.Now()
	g, err := aig.FromNetwork(src)
	if err != nil {
		st.Error = err.Error()
		return st, nil
	}
	g.Sweep()
	bal := g.Balance()
	st.BuildMS = sinceMS(start)
	st.Nodes = bal.NumAnds()
	st.Levels = int(bal.Depth())
	st.StrashHits = g.StrashHits() + bal.StrashHits()
	if attempts := st.StrashHits + int64(g.NumAnds()) + int64(bal.NumAnds()); attempts > 0 {
		st.StrashHitRate = float64(st.StrashHits) / float64(attempts)
	}
	if m, merr := bal.MapForDelay(4); merr == nil {
		st.Lut4, st.Lut4Depth = m.NumLUTs(), int(m.Depth)
	}
	if m, merr := bal.MapForDelay(6); merr == nil {
		st.Lut6, st.Lut6Depth = m.NumLUTs(), int(m.Depth)
	}
	subject, serr := bal.ToSubjectNetwork()
	if serr != nil {
		st.Error = serr.Error()
		return st, nil
	}
	return st, subject
}

// buildRewriteStats measures the full restructuring loop at worker widths
// 1 and 4, checks lowered-netlist determinism against width 8, and maps
// both the base and rewritten subject networks for the clock comparison.
func buildRewriteStats(src, baseSubject *network.Network, lib *genlib.Library) aigRewriteReport {
	rr := aigRewriteReport{Gomaxprocs: runtime.GOMAXPROCS(0), ParallelWorkers: 4}
	aig.InitLibraries() // keep the one-time NPN table build out of the walls
	run := func(workers int) (*network.Network, map[string]int64, float64, error) {
		tr := obs.New()
		start := time.Now()
		net, err := flows.RestructureAIG(context.Background(), src,
			flows.Config{Tracer: tr, Workers: workers})
		return net, tr.Counters(), sinceMS(start), err
	}
	serialNet, cnt, serialMS, err := run(1)
	if err != nil {
		rr.Error = err.Error()
		return rr
	}
	rr.SerialMS = serialMS
	rr.Nodes = int(cnt["aig_nodes"])
	rr.Levels = int(cnt["aig_levels"])
	rr.RewriteGain = cnt["aig_rewrite_gain"]
	rr.CutsPruned = cnt["aig_cuts_pruned"]
	rr.WaveCount = cnt["aig_wave_count"]
	parNet, _, parMS, err := run(rr.ParallelWorkers)
	if err != nil {
		rr.Error = err.Error()
		return rr
	}
	rr.ParallelMS = parMS
	if parMS > 0 {
		rr.Speedup = serialMS / parMS
	}
	wideNet, _, _, err := run(8)
	if err != nil {
		rr.Error = err.Error()
		return rr
	}
	sb, e1 := loweredBytes(serialNet)
	pb, e2 := loweredBytes(parNet)
	wb, e3 := loweredBytes(wideNet)
	if e1 == nil && e2 == nil && e3 == nil {
		rr.Deterministic = bytes.Equal(sb, pb) && bytes.Equal(sb, wb)
	}
	if baseSubject != nil {
		if clk, cerr := mappedClk(baseSubject, lib); cerr == nil {
			rr.ClkBase = clk
		}
	}
	// ClkRewrite mirrors flows.bestRemap's keep-best remap discipline: the
	// delay flow maps both the restructured and the base candidate and keeps
	// the faster, so the delivered period is the better of the two mappings.
	// The mapper is structure-sensitive, so mapping the rewritten network
	// alone can regress slightly even when nodes and depth both improve.
	if clk, cerr := mappedClk(serialNet, lib); cerr == nil {
		rr.ClkRewrite = clk
		if rr.ClkBase > 0 && rr.ClkBase < rr.ClkRewrite {
			rr.ClkRewrite = rr.ClkBase
		}
	}
	return rr
}

// loweredBytes serializes a subject network to BLIF for byte comparison.
func loweredBytes(n *network.Network) ([]byte, error) {
	var b bytes.Buffer
	if err := blif.Write(&b, n); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// mappedClk maps a subject network through the shared genlib library and
// reports the mapped clock period.
func mappedClk(subject *network.Network, lib *genlib.Library) (float64, error) {
	m, err := mapper.MapDelay(context.Background(), subject.Clone(), lib, nil)
	if err != nil {
		return 0, err
	}
	return timing.Period(m, timing.MappedDelay{N: m})
}

// aigFlowRun executes the script.delay flow on one substrate with a traced
// JSONL stream and recovers the per-pass walls from it (the same honest
// -stats-json consumption the default mode uses).
func aigFlowRun(src *network.Network, lib *genlib.Library, budget guard.Budget, substrate string) aigFlowReport {
	fr := aigFlowReport{SpanMS: map[string]float64{}}
	var buf bytes.Buffer
	tr := obs.NewJSON(&buf)
	start := time.Now()
	r, err := flows.RunFlow(context.Background(), "script", src, lib,
		flows.Config{Tracer: tr, Budget: budget, Substrate: substrate})
	fr.WallMS = sinceMS(start)
	if err != nil {
		fr.Error = err.Error()
		return fr
	}
	fr.Regs, fr.Clk, fr.Area, fr.Note = r.Regs, r.Clk, r.Area, r.Note
	evs, _, err := obs.ReadEvents(&buf)
	if err != nil {
		fr.Error = "trace stream unreadable: " + err.Error()
		return fr
	}
	for _, e := range evs {
		if e.Ev == "span_end" {
			fr.SpanMS[e.Span] += e.DurMs
		}
	}
	return fr
}

// guardedRestructure runs one substrate's restructuring pass transactionally
// under the -aig-budget deadline. The wall includes the transactional
// clone and the post-pass smoke check, exactly as the pass pays them
// inside a real flow. A deadline firing mid-pass is honoured at the pass's
// next cancellation point, so the wall of a DNF row can exceed the budget;
// Committed is the verdict.
func guardedRestructure(src *network.Network, pass string, deadline time.Duration, fn guard.PassFunc) aigGuardReport {
	start := time.Now()
	_, rep := guard.Tx(context.Background(), pass, src,
		guard.TxOptions{Budget: guard.Budget{Pass: deadline}}, fn)
	gr := aigGuardReport{Committed: rep.Committed, WallMS: sinceMS(start)}
	if !rep.Committed {
		gr.Note = rep.Note
	}
	return gr
}

func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// leafSpanMS sums the wall of every span whose path-qualified name ends in
// the given leaf (span names in the trace stream are slash-qualified by
// their ancestry, e.g. "flow.script_delay/guard.x/x").
func leafSpanMS(spans map[string]float64, leaf string) float64 {
	total := 0.0
	for name, ms := range spans {
		if name == leaf || strings.HasSuffix(name, "/"+leaf) {
			total += ms
		}
	}
	return total
}
