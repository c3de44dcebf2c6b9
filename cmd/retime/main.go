// Command retime applies Leiserson–Saxe retiming to a BLIF circuit:
// min-period (default) or constrained min-area at a given clock target.
//
// Usage:
//
//	retime -in circuit.blif [-minarea -period 3.0] [-out out.blif]
//	       [-partition on|off] [-order topo|positional] [-partition-nodes N] [-reorder]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bitsim"
	"repro/internal/blif"
	"repro/internal/buildinfo"
	"repro/internal/reach"
	"repro/internal/retime"
	"repro/internal/seqverify"
	"repro/internal/sim"
)

func main() {
	ctx := context.Background()
	in := flag.String("in", "", "input BLIF file")
	minarea := flag.Bool("minarea", false, "min-area retiming under -period instead of min-period")
	period := flag.Float64("period", 0, "clock target for -minarea (0 = current period)")
	out := flag.String("out", "", "output BLIF file")
	verify := flag.Bool("verify", true, "verify the result against the input")
	partition := flag.String("partition", "on", "partitioned transition relations for exact verification: on | off")
	order := flag.String("order", "topo", "BDD variable order: topo | positional")
	partitionNodes := flag.Int("partition-nodes", 0, "cluster node-size threshold for -partition on (0 = default)")
	reorder := flag.Bool("reorder", false, "enable dynamic BDD variable reordering (sifting) on node-count blowup")
	simCycles := flag.Int("sim-cycles", sim.DefaultSpotCheck.CLI.Cycles, "random-simulation cycles for the -verify fallback when the state space is too large for the exact check")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("retime", buildinfo.Version())
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	reachLim, err := reach.FlagLimits(reach.DefaultLimits, *partition, *order, *partitionNodes, *reorder)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	src, err := blif.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("input: %s (%v)\n", src.Name, src.Stat())

	var result = src
	if *minarea {
		c := *period
		if c == 0 {
			g, err := retime.BuildGraph(src, nil)
			if err != nil {
				fatal(err)
			}
			c, err = g.Period(nil)
			if err != nil {
				fatal(err)
			}
		}
		ret, info, err := retime.MinAreaUnderPeriod(ctx, src, nil, c, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("min-area @ %.2f: %v\n", c, info)
		result = ret
	} else {
		ret, info, err := retime.MinPeriod(ctx, src, nil, nil)
		if err != nil {
			fatal(fmt.Errorf("%w (the paper reports the same failure mode for several benchmarks)", err))
		}
		fmt.Printf("min-period: %v\n", info)
		result = ret
	}
	if *verify {
		err := seqverify.Equivalent(ctx, src, result, seqverify.Options{Limits: reachLim})
		switch {
		case err == nil:
			fmt.Println("verify: exact equivalence PASSED")
		case err == seqverify.ErrTooLarge:
			if serr := bitsim.RandomEquivalent(src, result, 0, *simCycles, sim.DefaultSpotCheck.CLI.Seed, bitsim.Options{}); serr != nil {
				fatal(serr)
			}
			fmt.Printf("verify: %d-cycle random simulation PASSED\n", *simCycles)
		default:
			fatal(err)
		}
	}
	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := blif.Write(g, result); err != nil {
			fatal(err)
		}
		g.Close()
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "retime:", err)
	os.Exit(1)
}
