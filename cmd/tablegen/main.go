// Command tablegen regenerates Table I of the paper: for every benchmark
// circuit it runs the three flows (script.delay, script.delay + retiming +
// combinational optimization, script.delay + resynthesis) and prints the
// register count, clock period and mapped area of each, verifying every
// flow output against the source circuit.
//
// Circuits are evaluated in parallel (-workers); the table is byte-
// identical for any worker count. -workers schedules whole circuits; the
// parallel passes inside a flow always use every core. Per-row wall times
// are opt-in (-times) because they are the one non-deterministic
// ingredient. -circuits selects rows.
//
// Usage:
//
//	tablegen [-circuits ex2,bbtas,...] [-verify] [-workers N]
//	         [-times] [-timeout 60s] [-pass-timeout 10s] [-trace]
//	         [-substrate sop|aig] [-stats-json events.jsonl]
//	         [-sweep]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/table"
)

func main() {
	circuitsFlag := flag.String("circuits", "", "comma-separated circuit names (default: all of Table I)")
	verify := flag.Bool("verify", true, "verify every flow output against the source circuit")
	workers := flag.Int("workers", 0, "parallel circuit evaluations (<=0 = GOMAXPROCS)")
	times := flag.Bool("times", false, "append per-circuit wall time to each row (breaks byte-stable output)")
	trace := flag.Bool("trace", false, "print the per-circuit span tree with wall time and counters")
	statsJSON := flag.String("stats-json", "", "write the JSON-lines trace event stream to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow; a circuit exceeding it reports a typed error instead of stalling the table (0 = unbounded)")
	passTimeout := flag.Duration("pass-timeout", 0, "wall-clock budget per pass within a flow (0 = unbounded)")
	substrate := flag.String("substrate", "sop", "technology-independent substrate for the flows: sop | aig")
	sweepOn := flag.Bool("sweep", false, "verification only: prove outputs past the exact-reachability limits by k-induction (SAT-based sequential sweeping) before the random-simulation spot check; the table's regs/clk/area do not depend on it")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("tablegen", buildinfo.Version())
		return
	}

	opt := table.Options{
		Verify:    *verify,
		Workers:   *workers,
		ShowTimes: *times,
		Budget:    guard.Budget{Flow: *timeout, Pass: *passTimeout},
		Substrate: *substrate,
		Sweep:     *sweepOn,
	}
	if *circuitsFlag != "" {
		opt.Circuits = strings.Split(*circuitsFlag, ",")
	}
	if *trace {
		opt.Tracer = obs.New()
	}
	if *statsJSON != "" {
		jf, err := os.Create(*statsJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablegen:", err)
			os.Exit(1)
		}
		defer jf.Close()
		opt.JSON = jf
	}

	_, err := table.Run(context.Background(), os.Stdout, os.Stderr, opt)
	if *trace {
		fmt.Println()
		opt.Tracer.WriteTree(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}
}
