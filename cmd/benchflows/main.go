// Command benchflows runs the Table I benchmark registry through all
// three evaluation flows with tracing enabled and writes BENCH_flows.json:
// per-circuit metrics for each flow, per-pass span durations, and the
// aggregated transformation counters. The per-pass data is recovered from
// the tracer's JSON-lines event stream (via obs.ReadEvents), so this
// command doubles as an end-to-end consumer of the -stats-json format.
//
// Circuits run concurrently (-workers); each traces into a private tracer
// and reports are assembled in suite order, so the JSON document is
// independent of worker count (up to wall-clock fields).
//
// With -reach-bench the command instead benchmarks the implicit state
// enumeration itself: every selected circuit is analyzed twice — once with
// the clustered-partitioned transition relation, once with the monolithic
// one — and BENCH_reach.json records peak BDD nodes, frontier peaks,
// cluster counts and wall time for both, plus the monolithic/partitioned
// peak-node ratio.
//
// With -sim-bench the command benchmarks random simulation itself: every
// selected circuit runs the self-equivalence sweep once on the scalar
// simulator and once on the bit-parallel engine (internal/bitsim), and
// BENCH_sim.json records vectors/sec for both plus the speedup ratio.
//
// With -aig-bench the command compares the two technology-independent
// substrates (internal/flows Config.Substrate): every selected circuit —
// by default Table I plus the s38417-class Large suite — records the AIG
// build statistics (nodes, strash hit rate, levels, LUT depths), the
// restructuring loop's serial vs parallel walls and rewrite deltas, runs
// the script.delay flow once per substrate with per-pass span walls, and
// runs the restructuring pass of both substrates under the -aig-budget
// guard deadline to document which substrate still commits at scale. The
// result is BENCH_aig.json (schema bench_aig/v2).
//
// With -sat-bench the command benchmarks SAT-based sequential sweeping
// against exact reachability: every selected circuit — by default Table I
// plus the Large suite — is proved equivalent to a clone of itself with
// both engines, and BENCH_sat.json (schema bench_sat/v1) records per
// circuit the proved/disproved/unknown class counts, solver conflicts,
// sweep wall vs reach wall, and the verification verdict, which flips
// from spot-checked to proved on every row past the 32-latch exact wall.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run (the
// same profiles resynd serves behind -debug), for attributing bench walls
// to passes offline.
//
// Usage:
//
//	benchflows [-out BENCH_flows.json] [-circuits ex2,bbtas,...] [-skip-large]
//	           [-workers N] [-timeout 60s] [-pass-timeout 10s]
//	           [-partition on|off] [-order topo|positional] [-partition-nodes N] [-reorder]
//	           [-reach-bench] [-reach-out BENCH_reach.json]
//	           [-sim-bench] [-sim-out BENCH_sim.json] [-sim-cycles N]
//	           [-aig-bench] [-aig-out BENCH_aig.json] [-aig-budget 1s]
//	           [-sat-bench] [-sat-out BENCH_sat.json] [-induction-k K]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/buildinfo"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/parexec"
	"repro/internal/reach"
	"repro/internal/sim"
)

type flowMetrics struct {
	Regs    int     `json:"regs"`
	Clk     float64 `json:"clk"`
	Area    float64 `json:"area"`
	Note    string  `json:"note,omitempty"`
	PrefixK int     `json:"prefix_k,omitempty"`
}

type circuitReport struct {
	Circuit  string                 `json:"circuit"`
	Gates    int                    `json:"gates"`
	Latches  int                    `json:"latches"`
	Flows    map[string]flowMetrics `json:"flows"`
	SpanMS   map[string]float64     `json:"span_ms"`
	Counters map[string]int64       `json:"counters"`
	WallMS   float64                `json:"wall_ms"`
	Error    string                 `json:"error,omitempty"`
	Skipped  bool                   `json:"skipped,omitempty"`
	// TraceSkipped counts malformed JSONL trace lines tolerated by
	// obs.ReadEvents (0 on a healthy run).
	TraceSkipped int `json:"trace_skipped,omitempty"`
}

type benchReport struct {
	Schema   string          `json:"schema"`
	Circuits []circuitReport `json:"circuits"`
}

func main() {
	out := flag.String("out", "BENCH_flows.json", "output JSON file")
	circuitsFlag := flag.String("circuits", "", "comma-separated circuit names (default: all of Table I)")
	skipLarge := flag.Bool("skip-large", false, "skip circuits with more than 1000 gates")
	workers := flag.Int("workers", 0, "parallel circuit evaluations (<=0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow; a circuit exceeding it reports a typed error instead of hanging the sweep (0 = unbounded)")
	passTimeout := flag.Duration("pass-timeout", 0, "wall-clock budget per pass within a flow (0 = unbounded)")
	partition := flag.String("partition", "on", "partitioned transition relations for state enumeration: on | off")
	order := flag.String("order", "topo", "BDD variable order: topo | positional")
	partitionNodes := flag.Int("partition-nodes", 0, "cluster node-size threshold for -partition on (0 = default)")
	reorder := flag.Bool("reorder", false, "enable dynamic BDD variable reordering (sifting) on node-count blowup")
	reachBench := flag.Bool("reach-bench", false, "benchmark partitioned vs monolithic reachability instead of the flows")
	reachOut := flag.String("reach-out", "BENCH_reach.json", "output JSON file for -reach-bench")
	simBench := flag.Bool("sim-bench", false, "benchmark scalar vs bit-parallel random simulation instead of the flows")
	simOut := flag.String("sim-out", "BENCH_sim.json", "output JSON file for -sim-bench")
	simCycles := flag.Int("sim-cycles", 256, "cycles per simulation sweep for -sim-bench")
	aigBench := flag.Bool("aig-bench", false, "benchmark the SOP vs AIG substrate instead of the flows")
	aigOut := flag.String("aig-out", "BENCH_aig.json", "output JSON file for -aig-bench")
	aigBudget := flag.Duration("aig-budget", time.Second, "guard pass deadline for the -aig-bench restructuring comparison (0 = unbounded)")
	satBench := flag.Bool("sat-bench", false, "benchmark SAT-sweep induction proofs vs exact reachability instead of the flows")
	satOut := flag.String("sat-out", "BENCH_sat.json", "output JSON file for -sat-bench")
	inductionK := flag.Int("induction-k", 1, "induction depth for -sat-bench proofs")
	metricsOut := flag.String("metrics", "", "write a Prometheus text dump of run metrics to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after GC) at exit to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("benchflows", buildinfo.Version())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchflows:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchflows:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchflows:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchflows:", err)
			}
		}()
	}

	reachLim, err := reach.FlagLimits(reach.DefaultLimits, *partition, *order, *partitionNodes, *reorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}

	suite := bench.TableI()
	if (*aigBench || *satBench) && *circuitsFlag == "" {
		// The substrate comparison and the sweep benchmark are about scale:
		// include the s38417-class suite the SOP substrate was built to
		// avoid — for -sat-bench these are exactly the rows whose verdict
		// must flip from spot-checked to proved.
		suite = append(suite, bench.Large()...)
	}
	if *circuitsFlag != "" {
		var filtered []bench.Circuit
		for _, name := range strings.Split(*circuitsFlag, ",") {
			c, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown circuit %q\n", name)
				os.Exit(1)
			}
			filtered = append(filtered, c)
		}
		suite = filtered
	}

	budget := guard.Budget{Flow: *timeout, Pass: *passTimeout}
	if *reachBench {
		runReachBench(suite, reachLim, budget, *workers, *skipLarge, *reachOut)
		return
	}
	if *simBench {
		runSimBench(suite, *workers, *skipLarge, *simCycles, *simOut)
		return
	}
	if *aigBench {
		runAigBench(suite, genlib.Lib2(), budget, *aigBudget, *workers, *skipLarge, *aigOut)
		return
	}
	if *satBench {
		runSatBench(suite, budget, *workers, *inductionK, *satOut)
		return
	}

	lib := genlib.Lib2()
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	rep := benchReport{Schema: "bench_flows/v1"}
	reports, err := parexec.Map(context.Background(), *workers, suite,
		func(_ context.Context, _ int, c bench.Circuit) (circuitReport, error) {
			return runCircuit(c, lib, budget, reachLim, *skipLarge, reg), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	for i, cr := range reports {
		rep.Circuits = append(rep.Circuits, cr)
		status := "ok"
		switch {
		case cr.Skipped:
			status = "skipped"
		case cr.Error != "":
			status = "FAILED: " + cr.Error
		}
		fmt.Printf("%-10s %8.0fms  %s\n", suite[i].Name, cr.WallMS, status)
	}

	f, err := os.Create(*out)
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
	fmt.Printf("wrote %s (%d circuits)\n", *out, len(rep.Circuits))
	if *metricsOut != "" {
		reg.SampleRuntime()
		mf, merr := os.Create(*metricsOut)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "benchflows:", merr)
			os.Exit(1)
		}
		reg.WritePrometheus(mf)
		mf.Close()
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
}

func runCircuit(c bench.Circuit, lib *genlib.Library, budget guard.Budget, lim reach.Limits, skipLarge bool, reg *obs.Registry) circuitReport {
	cr := circuitReport{Circuit: c.Name, Flows: map[string]flowMetrics{}}
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
	var buf bytes.Buffer
	tr := obs.NewJSON(&buf)
	if reg != nil {
		tr.SetRegistry(reg)
	}
	start := time.Now()
	sd, ret, rsyn, err := flows.RunAll(context.Background(), src, lib,
		flows.Config{Tracer: tr, Budget: budget, Reach: lim})
	cr.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.Flows["script_delay"] = asMetrics(sd)
	cr.Flows["retime_combopt"] = asMetrics(ret)
	cr.Flows["resynthesis"] = asMetrics(rsyn)
	cr.Counters = tr.Counters()

	// Per-pass durations come from the JSONL stream, not the in-memory
	// tree: this keeps the command an honest consumer of -stats-json.
	evs, skipped, err := obs.ReadEvents(&buf)
	if err != nil {
		cr.Error = "trace stream unreadable: " + err.Error()
		return cr
	}
	cr.TraceSkipped = skipped
	cr.SpanMS = map[string]float64{}
	for _, e := range evs {
		if e.Ev == "span_end" {
			cr.SpanMS[e.Span] += e.DurMs
		}
	}
	return cr
}

func asMetrics(r *flows.Result) flowMetrics {
	return flowMetrics{Regs: r.Regs, Clk: r.Clk, Area: r.Area, Note: r.Note, PrefixK: r.PrefixK}
}

// --- reach benchmark mode ---

type reachModeReport struct {
	PeakNodes    int     `json:"peak_bdd_nodes"`
	FrontierPeak int     `json:"frontier_peak_nodes"`
	Clusters     int     `json:"clusters"`
	ScheduleLen  int     `json:"quant_schedule_len"`
	SiftSwaps    int64   `json:"sift_swaps,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Error        string  `json:"error,omitempty"`
}

type reachCircuitReport struct {
	Circuit     string          `json:"circuit"`
	Latches     int             `json:"latches"`
	Depth       int             `json:"depth"`
	States      float64         `json:"reachable_states,omitempty"`
	Partitioned reachModeReport `json:"partitioned"`
	Monolithic  reachModeReport `json:"monolithic"`
	// PeakRatio is monolithic peak nodes / partitioned peak nodes; > 1
	// means partitioning reduced the peak.
	PeakRatio float64 `json:"peak_node_ratio,omitempty"`
	Skipped   bool    `json:"skipped,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type reachBenchReport struct {
	Schema   string               `json:"schema"`
	Circuits []reachCircuitReport `json:"circuits"`
}

// runReachBench analyzes every circuit twice — partitioned and monolithic
// transition relation, same variable order — and writes the comparison.
func runReachBench(suite []bench.Circuit, lim reach.Limits, budget guard.Budget, workers int, skipLarge bool, out string) {
	reports, err := parexec.Map(context.Background(), workers, suite,
		func(_ context.Context, _ int, c bench.Circuit) (reachCircuitReport, error) {
			return reachBenchCircuit(c, lim, budget, skipLarge), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	rep := reachBenchReport{Schema: "bench_reach/v1"}
	for _, cr := range reports {
		rep.Circuits = append(rep.Circuits, cr)
		status := "ok"
		switch {
		case cr.Skipped:
			status = "skipped"
		case cr.Error != "":
			status = "FAILED: " + cr.Error
		case cr.PeakRatio > 0:
			status = fmt.Sprintf("peak %d vs %d nodes (%.2fx), depth %d",
				cr.Partitioned.PeakNodes, cr.Monolithic.PeakNodes, cr.PeakRatio, cr.Depth)
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

// --- sim benchmark mode ---

type simModeReport struct {
	Vectors    int64   `json:"vectors"`
	WallMS     float64 `json:"wall_ms"`
	VectorsSec float64 `json:"vectors_per_sec"`
	Error      string  `json:"error,omitempty"`
}

type simCircuitReport struct {
	Circuit string        `json:"circuit"`
	Gates   int           `json:"gates"`
	Latches int           `json:"latches"`
	PIs     int           `json:"pis"`
	Scalar  simModeReport `json:"scalar"`
	Bitsim  simModeReport `json:"bitsim"`
	// Speedup is bitsim vectors/sec over scalar vectors/sec.
	Speedup float64 `json:"speedup,omitempty"`
	Skipped bool    `json:"skipped,omitempty"`
	Error   string  `json:"error,omitempty"`
}

type simBenchReport struct {
	Schema   string             `json:"schema"`
	Cycles   int                `json:"cycles"`
	Circuits []simCircuitReport `json:"circuits"`
}

// runSimBench runs the self-equivalence random sweep on every circuit with
// both simulation engines and writes the vectors/sec comparison.
func runSimBench(suite []bench.Circuit, workers int, skipLarge bool, cycles int, out string) {
	reports, err := parexec.Map(context.Background(), workers, suite,
		func(_ context.Context, _ int, c bench.Circuit) (simCircuitReport, error) {
			return simBenchCircuit(c, cycles, skipLarge), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	rep := simBenchReport{Schema: "bench_sim/v1", Cycles: cycles}
	for _, cr := range reports {
		rep.Circuits = append(rep.Circuits, cr)
		status := "ok"
		switch {
		case cr.Skipped:
			status = "skipped"
		case cr.Error != "":
			status = "FAILED: " + cr.Error
		case cr.Speedup > 0:
			status = fmt.Sprintf("%.0f vs %.0f vectors/s (%.1fx)",
				cr.Bitsim.VectorsSec, cr.Scalar.VectorsSec, cr.Speedup)
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

// simMeasure repeats the sweep until it has accumulated enough wall time
// for a stable rate (at least ~100ms or 64 repetitions).
func simMeasure(vectorsPerRun int64, run func() error) simModeReport {
	mr := simModeReport{}
	defer func() {
		if r := recover(); r != nil {
			mr.Error = fmt.Sprint(r)
		}
	}()
	start := time.Now()
	reps := 0
	for ; reps < 64 && (reps == 0 || time.Since(start) < 100*time.Millisecond); reps++ {
		if err := run(); err != nil {
			mr.Error = err.Error()
			return mr
		}
	}
	el := time.Since(start)
	mr.Vectors = int64(reps) * vectorsPerRun
	mr.WallMS = float64(el) / float64(time.Millisecond)
	mr.VectorsSec = float64(mr.Vectors) / el.Seconds()
	return mr
}

func simBenchCircuit(c bench.Circuit, cycles int, skipLarge bool) simCircuitReport {
	cr := simCircuitReport{Circuit: c.Name}
	src, err := c.Build()
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.Gates = src.NumLogicNodes()
	cr.Latches = len(src.Latches)
	cr.PIs = len(src.PIs)
	if skipLarge && cr.Gates > 1000 {
		cr.Skipped = true
		return cr
	}
	cr.Scalar = simMeasure(int64(cycles), func() error {
		return sim.RandomEquivalentScalar(src, src, 0, cycles, 1)
	})
	cr.Bitsim = simMeasure(int64(cycles)*bitsim.LanesPerWord, func() error {
		return bitsim.RandomEquivalent(src, src, 0, cycles, 1, bitsim.Options{})
	})
	if cr.Scalar.Error != "" || cr.Bitsim.Error != "" {
		cr.Error = cr.Scalar.Error + cr.Bitsim.Error
	}
	if cr.Scalar.VectorsSec > 0 && cr.Bitsim.VectorsSec > 0 {
		cr.Speedup = cr.Bitsim.VectorsSec / cr.Scalar.VectorsSec
	}
	return cr
}

func reachBenchCircuit(c bench.Circuit, lim reach.Limits, budget guard.Budget, skipLarge bool) reachCircuitReport {
	cr := reachCircuitReport{Circuit: c.Name}
	src, err := c.Build()
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.Latches = len(src.Latches)
	if skipLarge && src.NumLogicNodes() > 1000 {
		cr.Skipped = true
		return cr
	}
	run := func(mode reach.ImageMode) reachModeReport {
		mr := reachModeReport{}
		ml := lim
		ml.Image = mode
		ctx := context.Background()
		if budget.Flow > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget.Flow)
			defer cancel()
		}
		tr := obs.New()
		start := time.Now()
		a, err := reach.Analyze(ctx, src, ml, tr)
		mr.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		cnt := tr.Counters()
		mr.Clusters = int(cnt["reach_clusters"])
		mr.ScheduleLen = int(cnt["reach_quant_schedule_len"])
		if err != nil {
			mr.Error = err.Error()
			return mr
		}
		mr.PeakNodes = a.Stats.PeakNodes
		mr.FrontierPeak = a.FrontierPeakNodes
		mr.SiftSwaps = a.Stats.SiftSwaps
		if cr.Depth == 0 {
			cr.Depth = a.Depth
			cr.States = a.NumReachable()
		}
		return mr
	}
	cr.Partitioned = run(reach.ImagePartitioned)
	cr.Monolithic = run(reach.ImageMonolithic)
	if cr.Partitioned.Error != "" && cr.Monolithic.Error != "" {
		cr.Error = cr.Partitioned.Error
	}
	if cr.Partitioned.PeakNodes > 0 && cr.Monolithic.PeakNodes > 0 {
		cr.PeakRatio = float64(cr.Monolithic.PeakNodes) / float64(cr.Partitioned.PeakNodes)
	}
	return cr
}
