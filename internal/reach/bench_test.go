package reach_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/reach"
)

// BenchmarkReachFixpoint measures the full implicit-enumeration pipeline —
// node-function construction, transition relation, AndExists/Permute image
// iteration to the fixpoint — on embedded FSMs and ISCAS'89-profile
// circuits. This is the Table-I hot path the BDD substrate serves; DESIGN.md
// §8 records the speedup of the open-addressed tables against the original
// map-based manager on exactly this benchmark.
func BenchmarkReachFixpoint(b *testing.B) {
	for _, name := range []string{"bbtas", "bbara", "s298", "s344"} {
		b.Run(name, func(b *testing.B) {
			c, ok := bench.ByName(name)
			if !ok {
				b.Fatalf("unknown circuit %s", name)
			}
			src, err := c.Build()
			if err != nil {
				b.Fatal(err)
			}
			var last *reach.Analysis
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := reach.Analyze(context.Background(), src, reach.DefaultLimits, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = a
			}
			b.ReportMetric(float64(last.Stats.PeakNodes), "peak-nodes")
			b.ReportMetric(float64(last.Depth), "depth")
		})
	}
}

// BenchmarkProductReachS510 measures the verification product of s510's
// retime flow output against its source, the largest exact product on
// Table I: with the output's latches above the source in the variable
// order, it reaches its fixpoint in four image steps at about 300,000
// nodes. It is all mk and computed-table traffic, so it tracks the
// kernel's memory layout as well as the product order. It empties the
// manager free list first and never releases an analysis, so every
// iteration grows a fresh manager's tables; TestWarmAnalysisAllocatesLittle
// measures the same product on a reused manager.
func BenchmarkProductReachS510(b *testing.B) {
	c, ok := bench.ByName("s510")
	if !ok {
		b.Fatal("s510 missing")
	}
	src, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ret, err := flows.RunFlow(ctx, "retime", src, genlib.Lib2(), flows.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := network.Pair(src, ret.Net)
	if err != nil {
		b.Fatal(err)
	}
	reach.DropFreeManagers()
	var last *reach.Analysis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := reach.AnalyzeProduct(ctx, src, ret.Net, p, ret.PrefixK, reach.DefaultLimits, nil)
		if err != nil {
			b.Fatalf("want the product to reach its fixpoint, got %v", err)
		}
		last = a
	}
	b.ReportMetric(float64(last.Stats.Nodes), "nodes")
	b.ReportMetric(float64(last.Depth), "depth")
}

var sinkCover interface{}

// BenchmarkUnreachableDC measures the don't-care projection that the
// retime+comb.opt flow applies per node after the fixpoint.
func BenchmarkUnreachableDC(b *testing.B) {
	c, ok := bench.ByName("bbara")
	if !ok {
		b.Fatal("bbara missing")
	}
	src, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	a, err := reach.Analyze(context.Background(), src, reach.DefaultLimits, nil)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, 0, len(src.Latches))
	for i := range src.Latches {
		idx = append(idx, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCover = a.UnreachableDC(idx)
	}
}

// BenchmarkStageRefusalS1196 measures a refused DC extraction: s1196's
// retime-flow DC-extraction input builds 168,698 nodes of per-latch
// relations, past the staged budget of 62,500, so every iteration ends at
// the stage with ErrTooLarge after 0 image steps. Without the stage the
// same analysis built 2,000,000 nodes over three image steps before the
// limit tripped; allocations per op are the memory a refusal costs.
func BenchmarkStageRefusalS1196(b *testing.B) {
	n := dcExtractInput(b, "s1196", flows.SubstrateSOP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.Analyze(context.Background(), n, reach.DefaultLimits, nil); !errors.Is(err, reach.ErrTooLarge) {
			b.Fatalf("want the stage to refuse, got %v", err)
		}
	}
}
