package retime_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/retime"
)

// scriptOutput is circuit name's script.delay flow output: the network the
// retiming flow and the resynthesis flow start from.
func scriptOutput(tb testing.TB, name string) *network.Network {
	tb.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("no circuit %s", name)
	}
	src, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := flows.ScriptDelay(context.Background(), src, genlib.Lib2(), flows.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Net
}

func graphOf(tb testing.TB, n *network.Network) *retime.Graph {
	tb.Helper()
	g, err := retime.BuildGraph(n)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestOPTMatchesReferenceOnTableI runs the OPT differential on every
// OPT-sized Table I script output (the retiming flow's input) and on the
// network the resynthesis flow hands its guiding retiming: the script
// output after Algorithm 1.
func TestOPTMatchesReferenceOnTableI(t *testing.T) {
	for _, c := range bench.TableI() {
		n := scriptOutput(t, c.Name)
		if len(graphOf(t, n).Nodes)+1 > retime.MaxExactMinAreaVertices {
			continue
		}
		t.Run(c.Name+"/script", func(t *testing.T) {
			retime.CheckOPTAgainstReference(t, graphOf(t, n), 8)
		})
		t.Run(c.Name+"/guide", func(t *testing.T) {
			res, err := core.ResynthesizeIterate(context.Background(), n.Clone(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Applied {
				t.Skip("Algorithm 1 declined: the guide input is the script output")
			}
			retime.CheckOPTAgainstReference(t, graphOf(t, res.Network), 8)
		})
	}
}

var sinkLags []int

// BenchmarkMinPeriodOPT measures exact min-period retiming on the s641
// script output (373 vertices), the largest OPT-sized Table I graph.
func BenchmarkMinPeriodOPT(b *testing.B) {
	g := graphOf(b, scriptOutput(b, "s641"))
	probes, constraints, err := g.OPTStats()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := g.MinPeriodLagsOPT(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sinkLags = r
	}
	b.ReportMetric(float64(probes), "probes")
	b.ReportMetric(float64(constraints), "constraints")
}
