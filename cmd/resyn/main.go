// Command resyn reads a sequential circuit (BLIF or KISS2), runs one of
// the evaluation flows or the raw resynthesis algorithm, and writes the
// result as BLIF with a statistics summary.
//
// Usage:
//
//	resyn -in circuit.blif [-kiss] [-flow script|retime|resyn|core] [-out out.blif] [-verify]
//	      [-substrate sop|aig] [-timeout 30s] [-pass-timeout 5s] [-trace] [-stats-json events.jsonl]
//	      [-sweep]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/blif"
	"repro/internal/buildinfo"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/kiss"
	"repro/internal/network"
	"repro/internal/obs"
)

func main() {
	in := flag.String("in", "", "input file (BLIF, or KISS2 with -kiss)")
	isKiss := flag.Bool("kiss", false, "input is a KISS2 FSM (binary-encoded)")
	flow := flag.String("flow", "resyn", "flow: script | retime | resyn | core")
	substrate := flag.String("substrate", "sop", "technology-independent substrate: sop | aig")
	out := flag.String("out", "", "output BLIF file (default: stdout summary only)")
	verify := flag.Bool("verify", true, "verify the result against the input")
	trace := flag.Bool("trace", false, "print the span tree with per-pass wall time and counters")
	statsJSON := flag.String("stats-json", "", "write the JSON-lines trace event stream to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow; exceeding it degrades or fails with a typed error (0 = unbounded)")
	passTimeout := flag.Duration("pass-timeout", 0, "wall-clock budget per pass within a flow (0 = unbounded)")
	sweepOn := flag.Bool("sweep", false, "SAT-based sequential sweeping: prove register equivalences by K-induction when the state space exceeds the exact-reachability limit, both for don't-care extraction and for -verify")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("resyn", buildinfo.Version())
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	var tr *obs.Tracer
	if *trace || *statsJSON != "" {
		tr = obs.New()
		if *statsJSON != "" {
			jf, err := os.Create(*statsJSON)
			if err != nil {
				fatal(err)
			}
			defer jf.Close()
			tr.SetJSON(jf)
		}
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var src *network.Network
	if *isKiss {
		fsm, err := kiss.Parse(f, *in)
		if err != nil {
			fatal(err)
		}
		src, err = fsm.Synthesize(kiss.Binary)
		if err != nil {
			fatal(err)
		}
	} else {
		src, err = blif.Read(f)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("input: %s (%v)\n", src.Name, src.Stat())

	lib := genlib.Lib2()
	ctx := context.Background()
	cfg := flows.Config{
		Tracer:    tr,
		Budget:    guard.Budget{Flow: *timeout, Pass: *passTimeout},
		Substrate: *substrate,
		Sweep:     *sweepOn,
	}
	result, err := flows.RunFlow(ctx, *flow, src, lib, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result: %v (delayed-replacement prefix k=%d)\n", result.Metrics, result.PrefixK)
	if *trace {
		fmt.Println()
		tr.WriteTree(os.Stdout)
	}
	if *statsJSON != "" {
		fmt.Printf("wrote trace events to %s\n", *statsJSON)
	}

	if *verify {
		verdict, err := flows.VerifyVerdict(ctx, src, result, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("verify: %s PASSED\n", verdict)
	}
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer g.Close()
		if err := blif.Write(g, result.Net); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resyn:", err)
	os.Exit(1)
}
