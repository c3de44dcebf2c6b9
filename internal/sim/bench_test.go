package sim_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/sim"
)

func benchCircuit(b *testing.B, name string) *network.Network {
	b.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown bench circuit %s", name)
	}
	n, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkRandomEquivalent compares the scalar oracle against the
// bit-parallel engine on the self-equivalence sweep every verifier fallback
// and Tx smoke check runs. The vectors/s metric is the ISSUE's headline
// number: scalar advances one vector per pass, bitsim 64 per word op.
func BenchmarkRandomEquivalent(b *testing.B) {
	const cycles = 256
	for _, name := range []string{"s298", "s344"} {
		n := benchCircuit(b, name)
		b.Run(name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sim.RandomEquivalentScalar(n, n, 0, cycles, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*cycles/b.Elapsed().Seconds(), "vectors/s")
		})
		b.Run(name+"/bitsim", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bitsim.RandomEquivalent(n, n, 0, cycles, 1, bitsim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*cycles*bitsim.LanesPerWord/b.Elapsed().Seconds(), "vectors/s")
		})
	}
}

// BenchmarkSynchronizingSequence times the 64-candidates-per-word bitsim
// search for a synchronizing sequence.
func BenchmarkSynchronizingSequence(b *testing.B) {
	const (
		maxLen = 40
		tries  = 64
	)
	for _, name := range []string{"s298", "s344"} {
		n := benchCircuit(b, name)
		b.Run(name+"/bitsim", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bitsim.SynchronizingSequence(n, maxLen, 1, bitsim.Options{Streams: tries})
			}
		})
	}
}
