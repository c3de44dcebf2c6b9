package sweep_test

import (
	"context"
	"testing"

	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/retime"
	"repro/internal/sweep"
)

// searchCounters is the part of a Result that records the search itself:
// every solver call, conflict and learned clause, every counterexample,
// structural hit and round, and the proven outcome.
type searchCounters struct {
	SatCalls, Conflicts, Learned, Structural int64
	Cexes, Rounds, NodeEquivs, K             int
}

func countersOf(r *sweep.Result) searchCounters {
	return searchCounters{r.SatCalls, r.Conflicts, r.Learned, r.Structural, r.Cexes, r.Rounds, r.NodeEquivs, r.K}
}

// TestSweepSearchPinned pins the search counters of two proofs that
// exercise the whole engine: the s382 SOP retime proof, which deepens
// K = 1…4, and the DC extraction of SOP s641's retime flow (Registers on
// the min-period retimed script output). Any change to a solver decision
// (branching order, clause order, learned-clause reduction, instance
// reuse) moves these numbers; an optimisation of the proof engine must
// leave them exactly where they are.
func TestSweepSearchPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two retime flows and a four-depth proof")
	}
	ctx := context.Background()
	lib := genlib.Lib2()

	src := build(t, "s382")
	r, err := flows.RunFlow(ctx, "retime", src, lib, flows.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.ProveEquivalent(ctx, src, r.Net, r.PrefixK, sweep.Options{})
	if err != nil {
		t.Fatalf("s382 retime proof: %v", err)
	}
	want := searchCounters{SatCalls: 6855, Conflicts: 12076, Learned: 9337, Structural: 1168, Cexes: 192, Rounds: 19, NodeEquivs: 315, K: 4}
	if got := countersOf(res); got != want {
		t.Errorf("s382 retime proof: got %+v, want %+v", got, want)
	}

	// s641's min-period retiming rolls back (the "retiming" note of its
	// Table I row), so the retime flow's DC extraction runs Registers on
	// the script output itself.
	src = build(t, "s641")
	sd, err := flows.RunFlow(ctx, "script", src, lib, flows.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := retime.MinPeriod(ctx, sd.Net.Clone(), nil); err == nil {
		t.Fatal("s641 retiming no longer rolls back: pin the DC extraction on its output instead")
	}
	res, err = sweep.Registers(ctx, sd.Net.Clone(), sweep.Options{})
	if err != nil {
		t.Fatalf("s641 DC extraction: %v", err)
	}
	// Registers runs at K = 1.
	want = searchCounters{SatCalls: 89, Conflicts: 256, Learned: 185, Structural: 17, Cexes: 0, Rounds: 1, NodeEquivs: 53, K: 1}
	if got := countersOf(res); got != want {
		t.Errorf("s641 DC extraction: got %+v, want %+v", got, want)
	}
}
