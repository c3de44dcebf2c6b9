// Command tablebench measures the paper's Table I pipeline end to end and
// by layer: each circuit of a workload is taken through its flows with
// flows.RunFlow and every result is checked with flows.VerifyVerdict.
//
//	tablebench --workload tablei-sop --seed 1 --seconds 20 --trace 0
//
// It prints one row per cell (circuit × flow) and, as its last line, one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones of untraced passes; with --trace 1 every
// cell runs untraced and then traced, and the metrics are per layer.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/flows"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tablebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the order in which the circuits run")
	seconds := fs.Float64("seconds", 30, "measure further whole passes while they fit in this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tablebench: need --workload (%s) and --trace 0|1\n", workloadNames())
		return 2
	}
	var ref reference
	if w.checkReference {
		f, err := os.Open(referenceFile)
		if err != nil {
			fmt.Fprintf(stderr, "tablebench: %v\n", err)
			return 1
		}
		ref, err = readReference(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "tablebench: %s: %v\n", referenceFile, err)
			return 1
		}
	}
	s, err := prepare(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "tablebench: %v\n", err)
		return 1
	}

	var passes [][]cell
	var traced []cell
	var tr *obs.Tracer
	if *trace == 1 {
		tr = obs.New()
		both := runPass(w, s, ref, nil, tr)
		passes, traced = both[:1], both[1]
	} else {
		t0 := time.Now()
		for {
			c0 := cpuSeconds()
			passes = append(passes, runPass(w, s, ref, nil)[0])
			t := totals(passes[len(passes)-1])
			fmt.Fprintf(stdout, "pass %d: flow %.3fs (cpu %.3fs), verify %.3fs (cpu %.3fs), process cpu %.3fs, probe %.5fs\n",
				len(passes), t.flowS, t.flowCPU, t.verifyS, t.verifyCPU, cpuSeconds()-c0, probeMedian(passes[len(passes)-1]))
			el := time.Since(t0).Seconds()
			if el+el/float64(len(passes)) > *seconds {
				break
			}
		}
	}

	// Every pass, traced or not, must deliver the same outcomes.
	correct := true
	for _, p := range append([][]cell{traced}, passes[1:]...) {
		if p == nil {
			continue
		}
		for i := range p {
			if p[i].outcome() != passes[0][i].outcome() {
				fmt.Fprintf(stderr, "tablebench: outcome changed between passes: %s vs %s\n",
					passes[0][i].outcome(), p[i].outcome())
				correct = false
			}
		}
	}
	cells := passes[0]
	if traced != nil {
		cells = traced
	}
	writeCells(stdout, w, s, cells)
	failed := 0
	for _, c := range cells {
		if c.failed() {
			failed++
		}
	}

	var metrics map[string]metricValue
	if *trace == 1 {
		metrics, err = withUnits(perLayerSpecs, perLayer(s, passes[0], traced, tr))
	} else {
		metrics, err = withUnits(endToEndSpecs, endToEnd(s, passes))
	}
	if err != nil {
		fmt.Fprintf(stderr, "tablebench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(report{
		Correct:   correct && failed == 0,
		Attempted: len(cells),
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "tablebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}

// writeCells prints one row per cell, then the base of the share metrics.
func writeCells(out io.Writer, w workload, s *setup, cells []cell) {
	fmt.Fprintf(out, "workload %s: setup cpu %.3fs (init %.3fs + median of %d builds)\n",
		w.name, s.seconds(), s.initS, len(s.repS))
	fmt.Fprintf(out, "%-8s %-7s %9s %9s %9s %9s %10s %5s %7s %7s %-20s %s\n",
		"circuit", "flow", "flow_s", "flow_cpu", "verify_s", "ver_cpu", "alloc_mib", "regs", "clk", "area", "verdict", "note")
	spot := 0
	for _, c := range cells {
		note := c.note
		if c.failed() {
			note = "FAILED " + c.fault
		}
		if c.verdict == flows.VerdictSpotChecked {
			spot++
		}
		fmt.Fprintf(out, "%-8s %-7s %9.3f %9.3f %9.3f %9.3f %10.1f %5d %7.2f %7.0f %-20s %s\n",
			c.circuit, c.flow, c.flowS, c.flowCPU, c.verifyS, c.verifyCPU, float64(c.flowAlloc+c.verAlloc)/(1<<20),
			c.regs, c.clk, c.area, c.verdict, note)
	}
	fmt.Fprintf(out, "cells: %d attempted, %d spot-checked; peak rss %.1f MiB\n", len(cells), spot, peakRSSMiB())
}
