// fsmopt: optimize an MCNC-style FSM through the full Table I pipeline.
//
// Parses an embedded KISS2 machine (bbtas by default), synthesizes it with
// binary state encoding, runs the three evaluation flows (script.delay,
// + retiming + combinational optimization, + resynthesis), prints the
// Reg/Clk/Area comparison, and verifies each result against the source
// machine by exact product-machine equivalence.
//
// Run with: go run ./examples/fsmopt [machine]
// where machine ∈ {bbtas, bbara, dk27, lion, train4, mc, beecount, shiftreg}
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/kiss"
)

func main() {
	ctx := context.Background()
	name := "bbtas"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	src, ok := bench.SmallFSMs()[name]
	if !ok {
		log.Fatalf("unknown machine %q (try bbtas, bbara, dk27, lion, train4, mc, beecount, shiftreg)", name)
	}
	fsm, err := kiss.ParseString(src, name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine %s: %d inputs, %d outputs, %d states, %d transitions, reset %s\n",
		name, fsm.NumIn, fsm.NumOut, len(fsm.States), len(fsm.Transitions), fsm.Reset)

	net, err := fsm.Synthesize(kiss.Binary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary-encoded network: %v\n\n", net.Stat())

	lib := genlib.Lib2()
	sd, ret, rsyn, err := flows.RunAll(ctx, net, lib, flows.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rows := []struct {
		flow string
		r    *flows.Result
	}{
		{"script.delay", sd},
		{"script.delay + retiming + comb.opt", ret},
		{"script.delay + resynthesis", rsyn},
	}
	fmt.Printf("%-36s %5s %8s %8s\n", "flow", "Reg", "Clk", "Area")
	for _, row := range rows {
		fmt.Printf("%-36s %5d %8.2f %8.0f", row.flow, row.r.Regs, row.r.Clk, row.r.Area)
		if row.r.Note != "" {
			fmt.Printf("  [%s]", row.r.Note)
		}
		fmt.Println()
	}
	fmt.Println()
	for _, row := range rows {
		if _, err := flows.VerifyVerdict(ctx, net, row.r, flows.Config{}); err != nil {
			log.Fatalf("%s: VERIFICATION FAILED: %v", row.flow, err)
		}
	}
	fmt.Println("all three flow outputs verified sequentially equivalent to the source machine")

	// One-hot comparison as a bonus: the encodings must agree behaviourally.
	oneHot, err := fsm.Synthesize(kiss.OneHot)
	if err != nil {
		log.Fatal(err)
	}
	sdOH, err := flows.ScriptDelay(ctx, oneHot, lib, flows.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none-hot encoding for comparison: %d registers, clk %.2f, area %.0f\n",
		sdOH.Regs, sdOH.Clk, sdOH.Area)
}
