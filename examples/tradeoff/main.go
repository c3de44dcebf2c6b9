// tradeoff: the performance/area trade-off of constrained min-area
// retiming ("The results demonstrate a favourable performance/area
// trade-off when compared with optimally retimed circuits").
//
// For a benchmark circuit, this example sweeps the clock-period target
// from the minimum achievable period up to the unretimed period and
// reports, for each target, the smallest register count that constrained
// min-area retiming can achieve — the classical retiming trade-off curve —
// and then shows where the resynthesized circuit lands relative to it.
//
// Run with: go run ./examples/tradeoff [circuit]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/network"
	"repro/internal/retime"
)

func main() {
	ctx := context.Background()
	name := "paper"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	var src *network.Network
	if name == "paper" {
		src = bench.BuildPaperExample()
	} else {
		c, ok := bench.ByName(name)
		if !ok {
			log.Fatalf("unknown circuit %q (use 'paper' or a Table I name)", name)
		}
		var err error
		src, err = c.Build()
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("circuit %s: %v\n", name, src.Stat())

	g, err := retime.BuildGraph(src)
	if err != nil {
		log.Fatal(err)
	}
	p0, err := g.Period(nil)
	if err != nil {
		log.Fatal(err)
	}
	// The fastest achievable implementation anchors the sweep.
	fastest, info, err := retime.MinPeriod(ctx, src, nil)
	if err != nil {
		log.Fatalf("min-period retiming failed: %v (a legitimate Table I outcome)", err)
	}
	pMin := info.PeriodAfter
	fmt.Printf("unretimed period %.0f, minimum achievable period %.0f (unit delay)\n\n", p0, pMin)

	fmt.Printf("%-18s %8s %12s\n", "period target", "regs", "verified")
	for target := pMin; target <= p0+0.5; target++ {
		ret, mInfo, err := retime.MinAreaUnderPeriod(ctx, fastest, target, nil)
		if err != nil {
			fmt.Printf("%-18.0f %8s   (%v)\n", target, "-", err)
			continue
		}
		fmt.Printf("%-18.0f %8d %12s\n", target, mInfo.RegsAfter, verify(src, ret, 0))
	}

	// Where the paper's resynthesis lands.
	res, err := core.Resynthesize(ctx, src, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if !res.Applied {
		fmt.Printf("resynthesis declined: %s\n", res.Reason)
		return
	}
	fmt.Printf("resynthesis point:  period %.0f with %d registers %s\n",
		res.PeriodAfter, res.RegsAfter, verify(src, res.Network, res.PrefixK))
	fmt.Println("(the technique can land below the retiming-only trade-off curve when")
	fmt.Println(" the retiming-induced don't cares simplify the relocated logic)")
}

// verify checks b against a with delayed-replacement prefix k through the
// shared verification ladder (exact when the product state space is small,
// random simulation otherwise) and renders the verdict as a table cell.
func verify(a, b *network.Network, k int) string {
	v, err := flows.VerifyVerdict(context.Background(), a, &flows.Result{Net: b, PrefixK: k}, flows.Config{})
	if err != nil {
		return "FAILED"
	}
	return v
}
