package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/retime"
	"repro/internal/seqverify"
	"repro/internal/timing"
)

// TestPaperWorkedExample replays the Section III story on the
// reconstructed Fig. 4–6 circuit: delay-optimized 3 → conventional
// retiming 2 → resynthesis 1.
func TestPaperWorkedExample(t *testing.T) {
	orig := bench.BuildPaperExample()
	if err := orig.Check(); err != nil {
		t.Fatal(err)
	}
	p0, err := timing.Period(orig)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 3 {
		t.Fatalf("original period = %v, want 3", p0)
	}

	// Conventional min-period retiming reaches 2 (Fig. 4b).
	ret, info, err := retime.MinPeriod(context.Background(), orig, nil)
	if err != nil {
		t.Fatalf("conventional retiming failed: %v", err)
	}
	if info.PeriodAfter != 2 {
		t.Fatalf("conventional retiming period = %v, want 2", info.PeriodAfter)
	}
	if err := seqverify.Equivalent(context.Background(), orig, ret, seqverify.Options{}, nil); err != nil {
		t.Fatalf("conventional retiming not equivalent: %v", err)
	}

	// The paper's resynthesis reaches 1 (Fig. 5d).
	res, err := Resynthesize(context.Background(), orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatalf("resynthesis not applied: %s", res.Reason)
	}
	if res.PeriodAfter != 1 {
		t.Fatalf("resynthesis period = %v, want 1", res.PeriodAfter)
	}
	if res.PrefixK == 0 {
		t.Fatal("stem splits must contribute a delayed-replacement prefix")
	}
	if res.Simplified == 0 {
		t.Fatal("DCret simplification must fire on the worked example")
	}
	// Delayed replacement with prefix k must hold exactly.
	if err := seqverify.Equivalent(context.Background(), orig, res.Network, seqverify.Options{Delay: res.PrefixK}, nil); err != nil {
		t.Fatalf("resynthesized circuit not delayed-equivalent: %v", err)
	}
	if err := res.Network.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExampleRegisterEconomy: the min-area post-pass must keep the
// register increase modest ("We strive to minimize the increase in number
// of registers without sacrificing the cycle-time performance").
func TestPaperExampleRegisterEconomy(t *testing.T) {
	orig := bench.BuildPaperExample()
	res, err := Resynthesize(context.Background(), orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal(res.Reason)
	}
	noMA, err := Resynthesize(context.Background(), orig, Options{SkipMinArea: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RegsAfter > noMA.RegsAfter {
		t.Fatalf("min-area post-pass increased registers: %d vs %d",
			res.RegsAfter, noMA.RegsAfter)
	}
	if res.RegsAfter > res.RegsBefore+3 {
		t.Fatalf("register inflation too large: %d -> %d", res.RegsBefore, res.RegsAfter)
	}
}

// TestDCRetAblation: with the don't-care set disabled, no simplification is
// possible and the forward retiming alone must not beat conventional
// retiming (the paper: "without the don't care set, no simplification
// could have been achieved at all").
func TestDCRetAblation(t *testing.T) {
	orig := bench.BuildPaperExample()
	res, err := Resynthesize(context.Background(), orig, Options{DisableDCRet: true, KeepHarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simplified != 0 {
		t.Fatal("ablation must not simplify")
	}
	if res.Applied && res.PeriodAfter < 2 {
		t.Fatalf("period %v without DCret is impossible", res.PeriodAfter)
	}
	// Even the harmed circuit must remain behaviourally correct.
	if res.Applied {
		if err := seqverify.Equivalent(context.Background(), orig, res.Network, seqverify.Options{Delay: res.PrefixK}, nil); err != nil {
			t.Fatalf("ablated result not equivalent: %v", err)
		}
	}
}

// TestPipelineNotApplicable: Section IV — pipelines without feedback gain
// nothing; the single-fanout-register case returns the original circuit.
func TestPipelineNotApplicable(t *testing.T) {
	pipe := bench.BuildPipelineExample()
	res, err := Resynthesize(context.Background(), pipe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied {
		t.Fatalf("pipeline must not benefit (period %v -> %v)", res.PeriodBefore, res.PeriodAfter)
	}
	if res.Network != pipe {
		t.Fatal("original network must be returned unchanged")
	}
}

func TestSingleFanoutNotApplicable(t *testing.T) {
	n := bench.BuildSingleFanoutExample()
	res, err := Resynthesize(context.Background(), n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied {
		t.Fatal("single-fanout registers cannot be retimed across stems")
	}
	if res.Reason == "" {
		t.Fatal("non-application must carry a reason")
	}
}

// TestResynthesizeIterate: iterating must never return a slower circuit
// and must preserve delayed-replacement equivalence with the accumulated
// prefix.
func TestResynthesizeIterate(t *testing.T) {
	orig := bench.BuildPaperExample()
	res, err := ResynthesizeIterate(context.Background(), orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal(res.Reason)
	}
	if res.PeriodAfter > res.PeriodBefore {
		t.Fatalf("iteration made things worse: %v -> %v", res.PeriodBefore, res.PeriodAfter)
	}
	if err := seqverify.Equivalent(context.Background(), orig, res.Network, seqverify.Options{Delay: res.PrefixK}, nil); err != nil {
		t.Fatalf("iterated result not equivalent: %v", err)
	}
}

// TestResynthesizeRandomFSMs: resynthesis of randomly structured FSMs
// must always produce verified circuits (or decline).
func TestResynthesizeRandomFSMs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := bench.Synthetic(bench.Profile{
			Name: "rnd", PIs: 3, POs: 2, FFs: 4, Gates: 14, Seed: seed,
		})
		if err := n.Check(); err != nil {
			t.Fatalf("seed %d: invalid synthetic circuit: %v", seed, err)
		}
		res, err := Resynthesize(context.Background(), n, Options{KeepHarm: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Applied {
			continue
		}
		if err := res.Network.Check(); err != nil {
			t.Fatalf("seed %d: invalid result: %v", seed, err)
		}
		if err := seqverify.Equivalent(context.Background(), n, res.Network, seqverify.Options{Delay: res.PrefixK}, nil); err != nil {
			t.Fatalf("seed %d: not equivalent: %v", seed, err)
		}
	}
}

// TestHarmReversion: with KeepHarm=false (default), a pass that slows the
// circuit returns the original.
func TestHarmReversion(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := bench.Synthetic(bench.Profile{
			Name: "h", PIs: 2, POs: 1, FFs: 3, Gates: 10, Seed: seed,
		})
		p0, err := timing.Period(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resynthesize(context.Background(), n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p1, err := timing.Period(res.Network)
		if err != nil {
			t.Fatal(err)
		}
		if p1 > p0 {
			t.Fatalf("seed %d: default options returned a slower circuit (%v -> %v)", seed, p0, p1)
		}
	}
}

// TestPaperExampleBehaviour drives the resynthesized worked example with
// long random input sequences as an independent cross-check of the BDD
// verifier.
func TestPaperExampleBehaviour(t *testing.T) {
	orig := bench.BuildPaperExample()
	res, err := Resynthesize(context.Background(), orig, Options{})
	if err != nil || !res.Applied {
		t.Fatalf("apply failed: %v %v", err, res)
	}
	if err := bitsim.RandomEquivalent(orig, res.Network, res.PrefixK, 2000, 99, bitsim.Options{}); err != nil {
		t.Fatalf("simulation mismatch: %v", err)
	}
}

// TestForwardRetimableDefinition pins the paper's definition: a node is
// forward-retimable iff it contains only registers as fanins.
func TestForwardRetimableDefinition(t *testing.T) {
	n := bench.BuildPaperExample()
	g1 := n.FindNode("g1")
	if !retime.ForwardRetimable(n, g1) {
		t.Fatal("g1 (all-register fanins) must be retimable")
	}
	g3 := n.FindNode("g3")
	if retime.ForwardRetimable(n, g3) {
		t.Fatal("g3 has a PI fanin; not retimable")
	}
	var lo *network.Node
	for _, v := range n.Nodes() {
		if v.Kind == network.KindLatchOut {
			lo = v
		}
	}
	if retime.ForwardRetimable(n, lo) {
		t.Fatal("latch outputs are not retimable nodes")
	}
}
