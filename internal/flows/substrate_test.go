package flows

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/genlib"
	"repro/internal/network"
)

// TestPropertyAigMatchesSOP is the substrate agreement property: the same
// circuit pushed through script.delay on the SOP substrate (the paper's
// two-level machinery, acting as oracle) and on the AIG substrate must
//
//  1. both stay sequentially equivalent to the source under the shared
//     random bitstream (so the substrates are interchangeable for
//     correctness), and agree with each other on the same streams;
//  2. land in the same mapped-period class, except that the AIG substrate
//     may land in a *lower* (better) class. Strict class equality does not
//     hold empirically: on planet, s400, s420, s13207, s35932 and s38417
//     the AIG-mapped clock crosses a power-of-two boundary downward (e.g.
//     s38417: 30.90 vs 36.55), so the one-sided bound is the real
//     invariant — switching substrates never costs a period class.
//
// The suite is the paper registry (Table I) plus seeded random synthetics
// that exercise shapes the registry does not pin down. CI runs this under
// -race; -short trims to the rows under ~600 gates.
func TestPropertyAigMatchesSOP(t *testing.T) {
	suite := bench.TableI()
	circuits := make(map[string]*network.Network, len(suite)+4)
	for _, c := range suite {
		src, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		circuits[c.Name] = src
	}
	// Random synthetics: profiles chosen to cover corners the registry
	// does not — register-dominated, wide-IO shallow, deep narrow, and a
	// near-degenerate tiny machine.
	for _, p := range []bench.Profile{
		{Name: "rnd_regheavy", PIs: 4, POs: 4, FFs: 40, Gates: 120, Seed: 0xA1},
		{Name: "rnd_wide", PIs: 32, POs: 24, FFs: 6, Gates: 180, Seed: 0xB2},
		{Name: "rnd_deep", PIs: 3, POs: 2, FFs: 9, Gates: 260, Seed: 0xC3},
		{Name: "rnd_tiny", PIs: 2, POs: 1, FFs: 2, Gates: 9, Seed: 0xD4},
	} {
		circuits[p.Name] = bench.Synthetic(p)
	}

	lib := genlib.Lib2()
	for name, src := range circuits {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && src.NumLogicNodes() > 600 {
				t.Skipf("short mode: %d gates", src.NumLogicNodes())
			}
			results := map[string]*Result{}
			for _, sub := range SubstrateNames() {
				r, err := RunFlow(context.Background(), "script", src, lib,
					Config{Substrate: sub})
				if err != nil {
					t.Fatalf("substrate %s: %v", sub, err)
				}
				if r.Clk <= 0 || r.Area <= 0 {
					t.Fatalf("substrate %s: degenerate metrics %v", sub, r.Metrics)
				}
				if err := bitsim.RandomEquivalent(src, r.Net, r.PrefixK, verifyCycles, verifySeed,
					bitsim.Options{}); err != nil {
					t.Fatalf("substrate %s diverges from source: %v", sub, err)
				}
				results[sub] = r
			}
			sop, aigr := results[SubstrateSOP], results[SubstrateAIG]
			delay := sop.PrefixK
			if aigr.PrefixK > delay {
				delay = aigr.PrefixK
			}
			if err := bitsim.RandomEquivalent(sop.Net, aigr.Net, delay, verifyCycles, verifySeed,
				bitsim.Options{}); err != nil {
				t.Fatalf("substrates diverge from each other: %v", err)
			}
			sopClass, aigClass := periodClass(sop.Clk), periodClass(aigr.Clk)
			if aigClass > sopClass {
				t.Fatalf("AIG period class regressed: sop clk %.2f (c%d) vs aig clk %.2f (c%d)",
					sop.Clk, sopClass, aigr.Clk, aigClass)
			}
			if aigClass < sopClass {
				t.Logf("AIG one class better: sop clk %.2f (c%d) vs aig clk %.2f (c%d)",
					sop.Clk, sopClass, aigr.Clk, aigClass)
			}
		})
	}
}

// periodClass buckets a mapped clock period into a factor-of-two
// comparability class: two implementations of the same circuit land in the
// same class unless one is better than the other by 2x or more.
func periodClass(clk float64) int {
	if clk <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(clk)))
}
