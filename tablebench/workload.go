package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
)

// workload is one set of circuits taken through a fixed list of flows
// under one flow configuration.
type workload struct {
	name     string
	circuits []string
	flows    []string
	cfg      flows.Config
	// checkReference compares every cell's regs/clk/area with the
	// committed Table I, which tablegen renders with the same
	// configuration (SOP substrate, sweep off).
	checkReference bool
	// verifyReps is how many times an untraced cell repeats its
	// VerifyVerdict call; the cell's verify wall and CPU time are the
	// medians. 0 means 1.
	verifyReps int
}

// workloads are the benchmark's inputs; README.md records why each was
// chosen.
var workloads = []workload{
	{
		name: "tablei-sop",
		circuits: []string{"ex2", "ex6", "bbtas", "bbara", "s27", "s208", "s298", "s344", "s382",
			"s386", "s400", "s420", "s510", "s526", "s641", "s820", "s1196", "s1238"},
		flows:          tableFlows,
		cfg:            flows.Config{Substrate: flows.SubstrateSOP},
		checkReference: true,
	},
	{
		name:     "large-script-aig",
		circuits: []string{"s9234", "s13207", "s15850"},
		flows:    []string{"script"},
		cfg:      flows.Config{Substrate: flows.SubstrateAIG},
		// Verification here is three short single-threaded bitsim loops,
		// whose speed varied by up to 15% between back-to-back calls on a
		// shared host; three calls per cell keep verify_cpu_s steady.
		verifyReps: 3,
	},
	{
		name:     "s5378-seq-sweep",
		circuits: []string{"s5378"},
		flows:    []string{"retime", "resyn"},
		cfg:      flows.Config{Substrate: flows.SubstrateAIG, Sweep: true},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// callDeadline bounds every RunFlow and VerifyVerdict call. It sits far
// above the slowest normal call (the s5378 flows, well under 30 s) and
// turns a stall into a failed cell instead of a hung run.
const callDeadline = 60 * time.Second

// setupReps is how many times set-up builds the library and every source;
// setup_s reports the median.
const setupReps = 5

// source is one built circuit.
type source struct {
	name string
	net  *network.Network
}

// setup is the prepared input of a run.
type setup struct {
	lib     *genlib.Library
	sources []source // in run order
	// initS is the process CPU time from process start to the end of the
	// one-time aig.InitLibraries.
	initS float64
	// repS and buildS are, per repetition, the process CPU time of
	// genlib.Lib2 plus all builds, and of the builds alone.
	repS, buildS []float64
}

// seconds is setup_s: the one-time initialisation plus the median
// repetition. Set-up is timed in CPU time, like the flows and
// verification, because its wall on a shared host is as unsteady as
// theirs.
func (s *setup) seconds() float64 { return s.initS + median(s.repS) }

// prepare builds the library and the workload's circuits, in an order drawn
// from seed, setupReps times over, keeping the last set.
func prepare(w workload, seed int64) (*setup, error) {
	aig.InitLibraries()
	s := &setup{initS: cpuSeconds()}
	order := rand.New(rand.NewSource(seed)).Perm(len(w.circuits))
	for rep := 0; rep < setupReps; rep++ {
		c0 := cpuSeconds()
		s.lib = genlib.Lib2()
		c1 := cpuSeconds()
		s.sources = s.sources[:0]
		for _, i := range order {
			c, ok := bench.ByName(w.circuits[i])
			if !ok {
				return nil, fmt.Errorf("unknown circuit %q", w.circuits[i])
			}
			n, err := c.Build()
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", c.Name, err)
			}
			s.sources = append(s.sources, source{c.Name, n})
		}
		c2 := cpuSeconds()
		s.repS = append(s.repS, c2-c0)
		s.buildS = append(s.buildS, c2-c1)
	}
	return s, nil
}

// cell is one circuit × flow: what it cost and what it delivered.
type cell struct {
	circuit, flow        string
	flowS, verifyS       float64   // wall
	flowCPU, verifyCPU   float64   // process CPU time
	probeS               []float64 // probes before each timed call
	flowAlloc, verAlloc  uint64
	regs                 int
	clk, area            float64
	verdict, note, fault string // fault is empty unless the cell failed
}

func (c cell) failed() bool { return c.fault != "" }

// outcome is what must not change between passes or with tracing on.
func (c cell) outcome() string {
	return fmt.Sprintf("%s/%s %s %s %q", c.circuit, c.flow, quality(c.regs, c.clk, c.area), c.verdict, c.fault)
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runPass takes every source through every flow of w, verifying each
// result against its source. Each cell runs once per entry of tracers,
// back to back, so a traced run (non-nil tracer; verification goes under
// the benchmark's own verify span) and an untraced run (nil) of a cell see
// the same warm process. It returns one cell list per tracer.
func runPass(w workload, s *setup, ref reference, tracers ...*obs.Tracer) [][]cell {
	out := make([][]cell, len(tracers))
	for _, src := range s.sources {
		for _, f := range w.flows {
			for i, tr := range tracers {
				cfg := w.cfg
				cfg.Tracer = tr
				reps := 1
				if tr == nil {
					reps = max(w.verifyReps, 1)
				}
				c := runCell(src, f, s.lib, cfg, callDeadline, reps, w.probesPerCall())
				if ref != nil && !c.failed() {
					want, got := ref[src.name][f], quality(c.regs, c.clk, c.area)
					if want != got {
						c.fault = fmt.Sprintf("reference mismatch: table_output.txt has %q, flow gave %q", want, got)
					}
				}
				out[i] = append(out[i], c)
			}
		}
	}
	return out
}

// runCell runs one flow and verifies its output reps times, each call under
// its own deadline and after settle with the given number of probes.
func runCell(src source, flow string, lib *genlib.Library, cfg flows.Config, deadline time.Duration, reps, probes int) cell {
	c := cell{circuit: src.name, flow: flow}
	c.settle(probes)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	res, err := flows.RunFlow(ctx, flow, src.net, lib, cfg)
	c.flowS, c.flowCPU, c.flowAlloc = time.Since(t0).Seconds(), cpuSeconds()-c0, allocBytes()-a0
	expired := ctx.Err()
	cancel()
	if err == nil && expired != nil {
		// A pass that hit the deadline rolls back with a note instead of
		// failing the flow; the cell still failed its budget.
		err = guard.BudgetErr("flow "+flow, expired)
	}
	if err != nil {
		c.fault = "flow: " + err.Error()
		return c
	}
	c.regs, c.clk, c.area, c.note = res.Regs, res.Clk, res.Area, res.Note

	var walls, cpus []float64
	for rep := 0; rep < reps && !c.failed(); rep++ {
		c.settle(probes)
		verdict, wall, cpu, alloc, fault := verifyOnce(src, res, cfg, deadline)
		if rep == 0 {
			c.verdict, c.verAlloc = verdict, alloc
		} else if verdict != c.verdict {
			fault = fmt.Sprintf("verdict changed between repetitions: %s then %s", c.verdict, verdict)
		}
		c.fault = fault
		walls, cpus = append(walls, wall), append(cpus, cpu)
	}
	c.verifyS, c.verifyCPU = median(walls), median(cpus)
	return c
}

// settle prepares a timed call: a forced garbage collection, so that no
// call pays for the garbage of the one before it, then probes of the host's
// speed.
func (c *cell) settle(probes int) {
	runtime.GC()
	for range probes {
		c.probeS = append(c.probeS, probe())
	}
}

// verifyOnce makes one timed VerifyVerdict call of a flow result against
// its source. fault is empty unless the call failed.
func verifyOnce(src source, res *flows.Result, cfg flows.Config, deadline time.Duration) (verdict string, wall, cpu float64, alloc uint64, fault string) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	sp := cfg.Tracer.Begin(verifySpan)
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	verdict, err := flows.VerifyVerdict(ctx, src.net, res, cfg)
	wall, cpu, alloc = time.Since(t0).Seconds(), cpuSeconds()-c0, allocBytes()-a0
	sp.End()
	switch {
	case errors.Is(err, guard.ErrBudget) || ctx.Err() != nil:
		fault = "verify deadline: " + fmt.Sprint(err)
	case err != nil:
		fault = "verify: " + err.Error()
	}
	return verdict, wall, cpu, alloc, fault
}
