package aig

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/network"
)

// benchCircuit is an s5378-profile synthetic: the largest Table I row,
// big enough that strash and balance dominate over per-call overhead.
func benchCircuit(b *testing.B) *network.Network {
	b.Helper()
	return bench.Synthetic(bench.Profile{
		Name: "aigbench", PIs: 35, POs: 49, FFs: 179, Gates: 2779, Seed: 5378,
	})
}

func BenchmarkFromNetwork(b *testing.B) {
	src := benchCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := FromNetwork(src)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.NumAnds()), "ands")
		}
	}
}

func BenchmarkSweepBalance(b *testing.B) {
	src := benchCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := FromNetwork(src)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g.Sweep()
		bal := g.Balance()
		if i == 0 {
			b.ReportMetric(float64(bal.Depth()), "levels")
		}
	}
}
