// Package repro hosts the benchmarks of the paper's claims that no Table I
// workload covers: the Section III worked example, the Section IV
// engine-complexity claim, the ablations called out in DESIGN.md, and the
// retiming, reachability, two-level and timing engines underneath. Table I
// itself, every cell verified, is measured by the tablebench module. Run
// with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/retime"
	"repro/internal/timing"
)

func buildCircuit(b *testing.B, name string) *network.Network {
	b.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	n, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkPaperExample is the Section III worked example (Fig. 4–6):
// resynthesis takes the unit-delay cycle time from 3 to the optimum 1.
func BenchmarkPaperExample(b *testing.B) {
	src := bench.BuildPaperExample()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Resynthesize(context.Background(), src, core.Options{})
		if err != nil || !res.Applied {
			b.Fatalf("%v %v", err, res)
		}
	}
	b.ReportMetric(res.PeriodBefore, "period-before")
	b.ReportMetric(res.PeriodAfter, "period-after")
	b.ReportMetric(float64(res.RegsAfter), "regs")
}

// BenchmarkRetimingEngine supports the Section IV complexity discussion:
// the forward-retiming engine over fanout-free critical paths of growing
// length (quadratic worst case in the path length).
func BenchmarkRetimingEngine(b *testing.B) {
	for _, length := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("path%d", length), func(b *testing.B) {
			src := buildChainFSM(length)
			for i := 0; i < b.N; i++ {
				if _, err := core.Resynthesize(context.Background(), src, core.Options{KeepHarm: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildChainFSM builds a ring of `length` gates fed by a multi-fanout
// register, so the whole path is register-fed and forward-retimable.
func buildChainFSM(length int) *network.Network {
	n := network.New(fmt.Sprintf("chain%d", length))
	a := n.AddPI("a")
	v := n.AddLatch("v", nil, network.V0)
	s := n.AddLatch("s", a, network.V0)
	xor2 := logic.MustParseCover(2, "10", "01")
	buf := logic.MustParseCover(1, "1")
	cur := n.AddLogic("h0", []*network.Node{v.Output, s.Output}, xor2.Clone())
	for i := 1; i < length; i++ {
		cur = n.AddLogic(fmt.Sprintf("h%d", i), []*network.Node{cur}, buf.Clone())
	}
	tail := n.AddLogic("tail", []*network.Node{cur, v.Output}, logic.MustParseCover(2, "11"))
	v.Driver = tail
	n.AddPO("y", tail)
	return n
}

// BenchmarkAblationDCRet quantifies the paper's observation that "without
// the don't care set, no simplification could have been achieved at all":
// same algorithm, don't-care usage disabled.
func BenchmarkAblationDCRet(b *testing.B) {
	src := bench.BuildPaperExample()
	for _, ab := range []struct {
		name string
		opt  core.Options
	}{
		{"with-dcret", core.Options{KeepHarm: true}},
		{"no-dcret", core.Options{DisableDCRet: true, KeepHarm: true}},
	} {
		b.Run(ab.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Resynthesize(context.Background(), src, ab.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PeriodAfter, "period")
			b.ReportMetric(float64(res.Simplified), "simplified")
		})
	}
}

// BenchmarkAblationMinArea quantifies the register recovery of the
// constrained min-area post-pass.
func BenchmarkAblationMinArea(b *testing.B) {
	src := bench.BuildPaperExample()
	for _, ab := range []struct {
		name string
		opt  core.Options
	}{
		{"with-minarea", core.Options{}},
		{"no-minarea", core.Options{SkipMinArea: true}},
	} {
		b.Run(ab.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Resynthesize(context.Background(), src, ab.opt)
				if err != nil || !res.Applied {
					b.Fatalf("%v", err)
				}
			}
			b.ReportMetric(float64(res.RegsAfter), "regs")
		})
	}
}

// BenchmarkMinPeriodRetiming measures the Leiserson–Saxe substrate on the
// synthetic ISCAS profiles (exact OPT up to 420 vertices, binary search +
// FEAS above; then realization). s5378, 1,575 vertices, takes the FEAS path.
func BenchmarkMinPeriodRetiming(b *testing.B) {
	for _, name := range []string{"s208", "s344", "s641", "s1196", "s5378"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			src := buildCircuit(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := retime.MinPeriod(context.Background(), src, nil); err != nil {
					b.Skipf("retiming failed (a legitimate Table I outcome): %v", err)
				}
			}
		})
	}
}

// BenchmarkImplicitEnumeration measures the BDD reachability engine the
// baseline flow depends on — the cost the paper's technique avoids.
func BenchmarkImplicitEnumeration(b *testing.B) {
	for _, name := range []string{"bbtas", "bbara", "s298"} {
		b.Run(name, func(b *testing.B) {
			src := buildCircuit(b, name)
			for i := 0; i < b.N; i++ {
				if _, err := reach.Analyze(context.Background(), src, reach.DefaultLimits, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEspressoSimplify measures the two-level minimizer with DCret-
// style don't cares — the inner loop of the resynthesis step.
func BenchmarkEspressoSimplify(b *testing.B) {
	f := logic.MustParseCover(5, "11--1", "111--", "---11", "--11-")
	dc := logic.MustParseCover(5, "1-0--", "0-1--", "-10--", "-01--")
	for i := 0; i < b.N; i++ {
		logic.Simplify(f, dc)
	}
}

// BenchmarkSTA measures the static timing analyzer over a mapped circuit.
func BenchmarkSTA(b *testing.B) {
	lib := genlib.Lib2()
	src := buildCircuit(b, "s344")
	sd, err := flows.ScriptDelay(context.Background(), src, lib, flows.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Analyze(sd.Net); err != nil {
			b.Fatal(err)
		}
	}
}
