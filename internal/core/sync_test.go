package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/sim"
)

// TestStructuralSyncSequenceSurvivesResynthesis exercises the Section II
// theory: structural synchronizing sequences (conservative 3-valued
// simulation) are preserved under retiming, and functional equivalence
// needs only a prefix of k arbitrary vectors before the original sequence
// (delayed replacement, El-Maleh et al. / Singhal et al.).
//
// We build a resettable FSM whose one-vector sequence rst=1 synchronizes
// the original, resynthesize, and check that (prefix of k arbitrary
// vectors) + (the original sequence) drives the resynthesized machine to a
// state from which both machines agree forever.
func TestStructuralSyncSequenceSurvivesResynthesis(t *testing.T) {
	orig := resettableFSM(t)
	rst := make([]bool, len(orig.PIs))
	rst[len(rst)-1] = true // resettableFSM adds rst as the last PI
	seq := [][]bool{rst}

	so, err := sim.New(orig)
	if err != nil {
		t.Fatal(err)
	}
	toPI := func(s *sim.Simulator, bits []bool) map[*network.Node]network.Value {
		m := make(map[*network.Node]network.Value, len(bits))
		for i, p := range s.N.PIs {
			if bits[i] {
				m[p] = network.V1
			} else {
				m[p] = network.V0
			}
		}
		return m
	}
	allX := func(n int) []network.Value {
		x := make([]network.Value, n)
		for i := range x {
			x[i] = network.VX
		}
		return x
	}
	so.SetState(allX(len(orig.Latches)))
	for _, bits := range seq {
		so.Step3(toPI(so, bits))
	}
	if !so.AllDefined() {
		t.Fatal("rst=1 must structurally synchronize the original machine")
	}

	res, err := Resynthesize(context.Background(), orig, Options{KeepHarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Skipf("resynthesis declined on this machine: %s", res.Reason)
	}

	sr, err := sim.New(res.Network)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the resynthesized machine from the all-X state: k arbitrary
	// vectors (zeros), then the original synchronizing sequence.
	sr.SetState(allX(len(res.Network.Latches)))
	arb := make([]bool, len(res.Network.PIs))
	for k := 0; k < res.PrefixK; k++ {
		sr.Step3(toPI(sr, arb))
	}
	for _, bits := range seq {
		sr.Step3(toPI(sr, bits))
	}
	if !sr.AllDefined() {
		t.Fatal("prefixed structural synchronizing sequence did not synchronize the resynthesized machine")
	}

	// Drive the original from reset through the same prefix + sequence,
	// then compare outputs on a long random tail.
	so.Reset()
	for k := 0; k < res.PrefixK; k++ {
		so.StepBits(arb)
	}
	for _, bits := range seq {
		so.StepBits(bits)
	}
	rnd := int64(977)
	r := newRand(rnd)
	tail := make([]bool, len(orig.PIs))
	for c := 0; c < 500; c++ {
		for i := range tail {
			tail[i] = r.Intn(2) == 1
		}
		oa := so.StepBits(tail)
		ob := sr.StepBits(tail)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("outputs diverge at tail cycle %d after synchronization", c)
			}
		}
	}
}

// resettableFSM: the paper-example structure plus an explicit reset input
// that forces every register, guaranteeing a structural synchronizing
// sequence exists.
func resettableFSM(t *testing.T) *network.Network {
	t.Helper()
	n := bench.BuildPaperExample()
	// Gate every register driver with NOT(reset).
	rst := n.AddPI("rst")
	inv := mustCover(t, 1, "0")
	and2 := mustCover(t, 2, "11")
	nrst := n.AddLogic("nrst", []*network.Node{rst}, inv)
	for _, l := range n.Latches {
		g := n.AddLogic("rg_"+l.Name, []*network.Node{l.Driver, nrst}, and2.Clone())
		l.Driver = g
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

// Small local helpers keeping the test self-contained.

func mustCover(t *testing.T, n int, cubes ...string) *logic.Cover {
	t.Helper()
	return logic.MustParseCover(n, cubes...)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
