package sweep_test

import (
	"context"
	"testing"

	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/sweep"
)

// BenchmarkProveEquivalent times the s382 retime proof (the deepest of
// Table I, K = 1…4) and reports its allocations: the proof rounds reuse
// their solvers and instances, so allocs/op tracks the engine's garbage.
func BenchmarkProveEquivalent(b *testing.B) {
	ctx := context.Background()
	src := build(b, "s382")
	r, err := flows.RunFlow(ctx, "retime", src, genlib.Lib2(), flows.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.ProveEquivalent(ctx, src, r.Net, r.PrefixK, sweep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmRoundAllocs bounds the allocations of a clean full round on warm
// instances: parexec.Map's result slice and the bound runChunk method
// value make 3; the rest is headroom, far below one allocation per
// obligation.
const warmRoundAllocs = 16

// TestWarmRoundAllocatesLittle: once the proof of the s382 retime pair
// has converged at K = 4, one more clean full round re-proves every
// obligation on the engine's warm instances — solvers Reset, maps
// cleared, frames refilled, spurious step models read into a reused
// counterexample — and must allocate almost nothing: no clauses,
// variables, frames or counterexamples.
func TestWarmRoundAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	ctx := context.Background()
	src := build(t, "s382")
	r, err := flows.RunFlow(ctx, "retime", src, genlib.Lib2(), flows.Config{})
	if err != nil {
		t.Fatal(err)
	}
	round, err := sweep.WarmRound(ctx, src, r.Net, r.PrefixK, 4)
	if err != nil {
		t.Fatal(err)
	}
	var roundErr error
	allocs := testing.AllocsPerRun(3, func() {
		if err := round(); err != nil && roundErr == nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	t.Logf("%.0f allocations per warm full round", allocs)
	if allocs > warmRoundAllocs {
		t.Fatalf("a warm full round allocated %.0f times, want at most %d", allocs, warmRoundAllocs)
	}
}
