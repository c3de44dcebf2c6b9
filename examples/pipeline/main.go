// pipeline: the negative results of Section IV.
//
// The paper is explicit about when the technique cannot help:
//
//   - "fully combinational I/O paths and pipelined circuits would not
//     benefit from our technique" (no feedback loops → the retiming-induced
//     don't cares have nothing to correlate), and
//   - circuits whose critical paths "did not contain any multiple-fanout
//     registers that could be retimed across their fanout stems" cannot be
//     resynthesized at all.
//
// This example demonstrates both refusals and shows that plain retiming is
// the right tool for the pipeline (it balances it to the optimum).
//
// Run with: go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/retime"
	"repro/internal/timing"
)

func main() {
	ctx := context.Background()
	fmt.Println("== case 1: a feed-forward pipeline ==")
	pipe := bench.BuildPipelineExample()
	p0, err := timing.Period(pipe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %v, cycle time %.0f\n", pipe.Stat(), p0)

	res, err := core.Resynthesize(ctx, pipe, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if res.Applied {
		log.Fatal("unexpected: the pipeline was resynthesized")
	}
	fmt.Printf("resynthesis declined: %s\n", res.Reason)

	// Retiming, in contrast, balances the pipeline to the optimum.
	ret, info, err := retime.MinPeriod(ctx, pipe, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain retiming handles pipelines fine: %v\n", info)
	if p, _ := timing.Period(ret); p != info.PeriodAfter {
		log.Fatal("period mismatch")
	}
	fmt.Println()

	fmt.Println("== case 2: feedback, but single-fanout registers ==")
	sf := bench.BuildSingleFanoutExample()
	p1, _ := timing.Period(sf)
	fmt.Printf("circuit: %v, cycle time %.0f\n", sf.Stat(), p1)
	res2, err := core.Resynthesize(ctx, sf, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if res2.Applied {
		log.Fatal("unexpected: single-fanout circuit was resynthesized")
	}
	fmt.Printf("resynthesis declined: %s\n", res2.Reason)
	fmt.Println()
	fmt.Println("compare with: go run ./examples/quickstart (the positive case)")
}
