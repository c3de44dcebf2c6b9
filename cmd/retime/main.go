// Command retime applies Leiserson–Saxe retiming to a BLIF circuit:
// min-period (default) or constrained min-area at a given clock target.
//
// Usage:
//
//	retime -in circuit.blif [-minarea -period 3.0] [-out out.blif] [-verify]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/blif"
	"repro/internal/buildinfo"
	"repro/internal/flows"
	"repro/internal/retime"
)

func main() {
	ctx := context.Background()
	in := flag.String("in", "", "input BLIF file")
	minarea := flag.Bool("minarea", false, "min-area retiming under -period instead of min-period")
	period := flag.Float64("period", 0, "clock target for -minarea (0 = current period)")
	out := flag.String("out", "", "output BLIF file")
	verify := flag.Bool("verify", true, "verify the result against the input")
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
			g, err := retime.BuildGraph(src)
			if err != nil {
				fatal(err)
			}
			c, err = g.Period(nil)
			if err != nil {
				fatal(err)
			}
		}
		ret, info, err := retime.MinAreaUnderPeriod(ctx, src, c, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("min-area @ %.2f: %v\n", c, info)
		result = ret
	} else {
		ret, info, err := retime.MinPeriod(ctx, src, nil)
		if err != nil {
			fatal(fmt.Errorf("%w (the paper reports the same failure mode for several benchmarks)", err))
		}
		fmt.Printf("min-period: %v\n", info)
		result = ret
	}
	if *verify {
		verdict, err := flows.VerifyVerdict(ctx, src, &flows.Result{Net: result}, flows.Config{})
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
