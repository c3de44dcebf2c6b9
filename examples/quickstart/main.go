// Quickstart: the paper's Section III worked example, end to end.
//
// Builds the reconstructed Fig. 4 circuit, shows its unit-delay cycle time
// (3 gate delays), applies conventional min-period retiming (2), then the
// paper's resynthesis (1 — the optimum), and verifies every step through
// the one verification ladder (flows.VerifyVerdict) under delayed
// replacement.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/network"
	"repro/internal/retime"
	"repro/internal/timing"
)

func main() {
	ctx := context.Background()
	orig := bench.BuildPaperExample()
	fmt.Println("== Section III worked example (unit delay model) ==")
	fmt.Printf("original circuit: %v\n", orig.Stat())
	p0, err := timing.Period(orig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle time after delay optimization: %.0f gate delays\n\n", p0)

	// Step 1: what conventional retiming can do (Fig. 4b).
	ret, info, err := retime.MinPeriod(ctx, orig, nil)
	if err != nil {
		log.Fatalf("retiming failed: %v", err)
	}
	fmt.Printf("conventional min-period retiming: %v\n", info)
	check(orig, ret, 0)
	fmt.Printf("  -> %.0f gate delays; conventional retiming cannot reduce the delay any further\n", info.PeriodAfter)
	fmt.Println("     (the v -> g1 -> g2 -> v feedback cycle carries one register across two gates)")
	fmt.Println()

	// Step 2: the paper's resynthesis (Fig. 5).
	res, err := core.Resynthesize(ctx, orig, core.Options{})
	if err != nil {
		log.Fatalf("resynthesis failed: %v", err)
	}
	if !res.Applied {
		log.Fatalf("resynthesis declined: %s", res.Reason)
	}
	fmt.Println("resynthesis with retiming-induced don't cares:")
	fmt.Printf("  gates duplicated for the fanout-free path: %d\n", res.Duplicated)
	fmt.Printf("  atomic fanout-stem moves (delayed-replacement prefix k): %d\n", res.PrefixK)
	fmt.Printf("  forward retimings across path gates: %d\n", res.ForwardMoves)
	fmt.Printf("  cones simplified using DCret: %d\n", res.Simplified)
	fmt.Printf("  cycle time: %.0f -> %.0f gate delays (the optimum)\n", res.PeriodBefore, res.PeriodAfter)
	fmt.Printf("  registers: %d -> %d after constrained min-area retiming\n", res.RegsBefore, res.RegsAfter)
	check(orig, res.Network, res.PrefixK)
	fmt.Println()

	fmt.Println("resynthesized circuit (BLIF):")
	if err := blif.Write(os.Stdout, res.Network); err != nil {
		log.Fatal(err)
	}
}

// check verifies sequential equivalence under a k-cycle delayed-replacement
// prefix and reports the result with its verdict.
func check(a, b *network.Network, k int) {
	verdict, err := flows.VerifyVerdict(context.Background(), a, &flows.Result{Net: b, PrefixK: k}, flows.Config{})
	if err != nil {
		log.Fatalf("VERIFICATION FAILED: %v", err)
	}
	if k == 0 {
		fmt.Printf("  verified (%s): sequential equivalence (safe replacement)\n", verdict)
	} else {
		fmt.Printf("  verified (%s): sequential equivalence after a %d-cycle power-up prefix (delayed replacement)\n", verdict, k)
	}
}
