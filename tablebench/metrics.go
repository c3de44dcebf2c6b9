package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/flows"
	"repro/internal/obs"
	"repro/internal/seqverify"
)

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names and units (checked by TestSpecsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"flow_cpu_s", "s"},
	{"verify_cpu_s", "s"},
	{"alloc_gib", "GiB"},
	{"clk_geomean", "lib2_delay"},
	{"area_geomean", "lib2_area"},
	{"regs_sum", "registers"},
	{"spot_checked_share", "ratio"},
	{"ok_share", "ratio"},
}

var perLayerSpecs = []metricSpec{
	{"bench.build_s", "s"},
	{"host.probe_s", "s"},
	{"flows.wall_s", "s"},
	{"verify.wall_s", "s"},
	{"flows.script_s", "s"},
	{"flows.retime_s", "s"},
	{"flows.resyn_s", "s"},
	{"flows.script_alloc_gib", "GiB"},
	{"flows.retime_alloc_gib", "GiB"},
	{"flows.resyn_alloc_gib", "GiB"},
	{"flows.remap_self_s", "s"},
	{"flows.reverted", "count"},
	{"flows.unattributed_s", "s"},
	{"mapper.self_s", "s"},
	{"mapper.calls", "count"},
	{"mapper.cuts", "count"},
	{"mapper.candidates", "count"},
	{"algebraic.self_s", "s"},
	{"algebraic.eliminate_s", "s"},
	{"algebraic.nodes_eliminated", "count"},
	{"aig.self_s", "s"},
	{"aig.nodes", "count"},
	{"aig.levels", "count"},
	{"aig.rewrite_gain", "count"},
	{"retime.self_s", "s"},
	{"retime.moves_applied", "count"},
	{"retime.failed", "count"},
	{"reach.self_s", "s"},
	{"reach.iterations", "count"},
	{"bdd.nodes", "count"},
	{"bdd.cache_hit_ratio", "ratio"},
	{"bdd.cache_lookups", "count"},
	{"core.self_s", "s"},
	{"core.dcret_simplify_s", "s"},
	{"core.stems_split", "count"},
	{"core.cones_simplified", "count"},
	{"core.declined", "count"},
	{"sweep.self_s", "s"},
	{"sweep.classes_proved", "count"},
	{"sweep.cex_refinements", "count"},
	{"sat.calls", "count"},
	{"sat.conflicts", "count"},
	{"bitsim.self_s", "s"},
	{"bitsim.vectors", "count"},
	{"guard.self_s", "s"},
	{"guard.committed", "count"},
	{"guard.rolled_back", "count"},
	{"guard.deadline_exceeded", "count"},
	{"seqverify.exact_s", "s"},
	{"seqverify.proved_s", "s"},
	{"seqverify.spot_checked_s", "s"},
	{"verify.reach_s", "s"},
	{"verify.sweep_s", "s"},
	{"verify.bitsim_s", "s"},
	{"seqverify.exact", "count"},
	{"seqverify.proved", "count"},
	{"seqverify.spot_checked", "count"},
	{"trace.overhead_ratio", "ratio"},
}

const gib = 1 << 30

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// passTotals are the end-to-end sums of one pass.
type passTotals struct{ flowS, verifyS, flowCPU, verifyCPU, allocGiB float64 }

func totals(cells []cell) passTotals {
	var t passTotals
	for _, c := range cells {
		t.flowS += c.flowS
		t.verifyS += c.verifyS
		t.flowCPU += c.flowCPU
		t.verifyCPU += c.verifyCPU
		t.allocGiB += float64(c.flowAlloc+c.verAlloc) / gib
	}
	return t
}

// rusage reads the process's resource usage; it reports zeros if the
// call fails, which only the diagnostic lines show.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far, over all
// its threads. Unlike wall time it leaves out the time the host ran other
// guests on this machine's CPUs.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// probeMedian is the median CPU time of every probe run before a timed call
// of the given cells.
func probeMedian(passes ...[]cell) float64 {
	var ps []float64
	for _, p := range passes {
		for _, c := range p {
			ps = append(ps, c.probeS...)
		}
	}
	return median(ps)
}

// endToEnd computes the untraced metrics from the cells of every measured
// pass (all passes deliver the same outcomes; times are medians). Times are
// scaled to the host speed at which a probe takes probeRefS.
func endToEnd(s *setup, passes [][]cell) map[string]float64 {
	speed := probeRefS / probeMedian(passes...)
	var flowCPU, verifyCPU, alloc []float64
	for _, p := range passes {
		t := totals(p)
		flowCPU, verifyCPU, alloc = append(flowCPU, t.flowCPU), append(verifyCPU, t.verifyCPU), append(alloc, t.allocGiB)
	}
	cells := passes[0]
	var logClk, logArea float64
	regs, spot, ok := 0, 0, 0
	for _, c := range cells {
		if c.failed() {
			continue
		}
		ok++
		logClk += math.Log(c.clk)
		logArea += math.Log(c.area)
		regs += c.regs
		if c.verdict == flows.VerdictSpotChecked {
			spot++
		}
	}
	n := float64(len(cells))
	return map[string]float64{
		"setup_s":            s.seconds() * speed,
		"flow_cpu_s":         median(flowCPU) * speed,
		"verify_cpu_s":       median(verifyCPU) * speed,
		"alloc_gib":          median(alloc),
		"clk_geomean":        math.Exp(logClk / float64(max(ok, 1))),
		"area_geomean":       math.Exp(logArea / float64(max(ok, 1))),
		"regs_sum":           float64(regs),
		"spot_checked_share": float64(spot) / n,
		"ok_share":           float64(ok) / n,
	}
}

// perLayer computes the traced metrics: walls and allocations of the
// benchmark's own calls, per-layer self time from the span tree, and the
// counters the program emits.
func perLayer(s *setup, untraced, traced []cell, tr *obs.Tracer) map[string]float64 {
	m := map[string]float64{
		"bench.build_s": median(s.buildS),
		"host.probe_s":  probeMedian(untraced, traced),
		"flows.wall_s":  totals(untraced).flowS,
		"verify.wall_s": totals(untraced).verifyS,
	}
	for _, f := range tableFlows {
		m["flows."+f+"_s"] = 0
		m["flows."+f+"_alloc_gib"] = 0
	}
	verdictS := map[string]float64{}
	verdictN := map[string]float64{}
	for _, c := range traced {
		m["flows."+c.flow+"_s"] += c.flowS
		m["flows."+c.flow+"_alloc_gib"] += float64(c.flowAlloc) / gib
		verdictS[c.verdict] += c.verifyS
		if !c.failed() {
			verdictN[c.verdict]++
		}
	}
	flowRoots, verifyRoots := splitVerify(spanTree(tr))
	fa, va := attribute(flowRoots), attribute(verifyRoots)
	sec := func(d time.Duration) float64 { return d.Seconds() }
	both := func(l string) float64 { return sec(fa.layer[l] + va.layer[l]) }
	tracedFlowS, untracedFlowS := totals(traced).flowS, totals(untraced).flowS

	m["flows.remap_self_s"] = both(layerRemap)
	m["flows.unattributed_s"] = math.Max(0, tracedFlowS-sec(fa.named()))
	m["mapper.self_s"] = both(layerMapper)
	m["algebraic.self_s"] = both(layerAlgebraic)
	m["algebraic.eliminate_s"] = sec(fa.step["algebraic.eliminate"] + va.step["algebraic.eliminate"])
	m["aig.self_s"] = both(layerAIG)
	m["retime.self_s"] = both(layerRetime)
	m["reach.self_s"] = both(layerReach)
	m["core.self_s"] = both(layerCore)
	m["core.dcret_simplify_s"] = sec(fa.step["core.dcret_simplify"] + va.step["core.dcret_simplify"])
	m["sweep.self_s"] = both(layerSweep)
	m["bitsim.self_s"] = both(layerBitsim)
	m["guard.self_s"] = both(layerGuard)
	m["seqverify.exact_s"] = verdictS[string(seqverify.VerdictExact)]
	m["seqverify.proved_s"] = verdictS[string(seqverify.VerdictInduction)]
	m["seqverify.spot_checked_s"] = verdictS[flows.VerdictSpotChecked]
	m["seqverify.exact"] = verdictN[string(seqverify.VerdictExact)]
	m["seqverify.proved"] = verdictN[string(seqverify.VerdictInduction)]
	m["seqverify.spot_checked"] = verdictN[flows.VerdictSpotChecked]
	m["verify.reach_s"] = sec(va.layer[layerSeqverify])
	m["verify.sweep_s"] = sec(va.layer[layerSweep])
	m["verify.bitsim_s"] = sec(va.layer[layerBitsim])
	m["trace.overhead_ratio"] = tracedFlowS / untracedFlowS

	c := tr.Counters()
	counter := func(name string) float64 { return float64(c[name]) }
	m["flows.reverted"] = counter("flow_reverted")
	m["mapper.calls"] = float64(countSpans(flowRoots, "mapper.map_delay"))
	m["mapper.cuts"] = counter("mapper_cuts")
	m["mapper.candidates"] = counter("mapper_candidates")
	m["algebraic.nodes_eliminated"] = counter("algebraic_nodes_eliminated")
	m["aig.nodes"] = counter("aig_nodes")
	m["aig.levels"] = counter("aig_levels")
	m["aig.rewrite_gain"] = counter("aig_rewrite_gain")
	m["retime.moves_applied"] = counter("retime_moves_applied")
	m["retime.failed"] = counter("retime_failed")
	m["reach.iterations"] = counter("reach_iterations")
	m["bdd.nodes"] = counter("bdd_nodes")
	lookups := counter("bdd_cache_hits") + counter("bdd_cache_misses")
	m["bdd.cache_lookups"] = lookups
	m["bdd.cache_hit_ratio"] = 0
	if lookups > 0 {
		m["bdd.cache_hit_ratio"] = counter("bdd_cache_hits") / lookups
	}
	m["core.stems_split"] = counter("stems_split")
	m["core.cones_simplified"] = counter("cones_simplified")
	m["core.declined"] = counter("resyn_declined")
	m["sweep.classes_proved"] = counter("sweep_classes_proved")
	m["sweep.cex_refinements"] = counter("sweep_cex_refinements")
	m["sat.calls"] = counter("sat_calls")
	m["sat.conflicts"] = counter("sat_conflicts")
	m["bitsim.vectors"] = counter("bitsim_vectors")
	m["guard.committed"] = counter("pass_committed")
	m["guard.rolled_back"] = counter("pass_rolled_back")
	m["guard.deadline_exceeded"] = counter("pass_deadline_exceeded")
	return m
}

func countSpans(roots []*spanNode, name string) int {
	n := 0
	for _, r := range roots {
		if r.name == name {
			n++
		}
		n += countSpans(r.children, name)
	}
	return n
}

// report is the last line of the benchmark's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs every specified metric with its unit; a computed set
// that misses a specified name or carries an extra one is a bug.
func withUnits(specs []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", s.name)
		}
		out[s.name] = metricValue{v, s.unit}
	}
	if len(vals) != len(specs) {
		return nil, fmt.Errorf("computed %d metrics, specified %d", len(vals), len(specs))
	}
	return out, nil
}
