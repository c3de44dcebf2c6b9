package retime

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/seqverify"
)

// TestPropertyRandomAtomicMoves applies random sequences of legal atomic
// retiming moves to random FSMs and checks after every move that the
// network stays structurally valid and sequentially equivalent to the
// original (safe replacement — atomic moves preserve initial states).
func TestPropertyRandomAtomicMoves(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		orig := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 4, Gates: 12, Seed: seed,
		})
		work := orig.Clone()
		moves := 0
		for step := 0; step < 12; step++ {
			var cand []*network.Node
			for _, v := range work.Nodes() {
				if v.Kind != network.KindLogic {
					continue
				}
				if ForwardRetimable(work, v) || BackwardRetimable(work, v) {
					cand = append(cand, v)
				}
			}
			if len(cand) == 0 {
				break
			}
			v := cand[r.Intn(len(cand))]
			var err error
			if ForwardRetimable(work, v) && (r.Intn(2) == 0 || !BackwardRetimable(work, v)) {
				_, err = Forward(work, v)
			} else {
				_, err = Backward(work, v)
			}
			if err != nil {
				continue
			}
			moves++
			if cerr := work.Check(); cerr != nil {
				t.Fatalf("seed %d move %d: network invalid: %v", seed, moves, cerr)
			}
		}
		if moves == 0 {
			continue
		}
		err := seqverify.Equivalent(context.Background(), orig, work, seqverify.Options{})
		if errors.Is(err, reach.ErrTooLarge) {
			err = bitsim.RandomEquivalent(orig, work, 0, 500, seed, bitsim.Options{})
		}
		if err != nil {
			t.Fatalf("seed %d after %d moves: %v", seed, moves, err)
		}
	}
}

// TestPropertyStemSplitAlwaysDelayedEquivalent splits every splittable
// register of random FSMs and verifies delayed-replacement equivalence
// with the accumulated prefix.
func TestPropertyStemSplitAlwaysDelayedEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		orig := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 2, POs: 2, FFs: 4, Gates: 10, Seed: seed,
		})
		work := orig.Clone()
		k := 0
		for _, l := range append([]*network.Latch(nil), work.Latches...) {
			if work.NumFanouts(l.Output) < 2 {
				continue
			}
			created, err := SplitFanoutStem(work, l)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			k += len(created) - 1
		}
		if k == 0 {
			continue
		}
		if err := work.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		err := seqverify.Equivalent(context.Background(), orig, work, seqverify.Options{Delay: k})
		if errors.Is(err, reach.ErrTooLarge) {
			err = bitsim.RandomEquivalent(orig, work, k, 500, seed, bitsim.Options{})
		}
		if err != nil {
			t.Fatalf("seed %d: stem splits not delayed-equivalent: %v", seed, err)
		}
		// With preserved initial values the split is even safe (Section II:
		// preservation of initial states makes the new states invalid but
		// unreachable).
		err = seqverify.Equivalent(context.Background(), orig, work, seqverify.Options{})
		if err != nil && !errors.Is(err, reach.ErrTooLarge) {
			t.Fatalf("seed %d: init-preserving split must be safe: %v", seed, err)
		}
	}
}

// TestPropertyMinPeriodNeverWorse: the full min-period pass must never
// increase the clock period, and its output must verify.
func TestPropertyMinPeriodNeverWorse(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		orig := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 5, Gates: 16, Seed: seed,
		})
		ret, info, err := MinPeriod(context.Background(), orig, nil, nil)
		if err != nil {
			continue // initial-state realization failures are legitimate
		}
		if info.PeriodAfter > info.PeriodBefore+1e-9 {
			t.Fatalf("seed %d: period regressed: %v", seed, info)
		}
		if p, err := periodOf(ret, nil); err != nil || p > info.PeriodAfter+1e-9 {
			t.Fatalf("seed %d: realized period %v does not match claim %v", seed, p, info.PeriodAfter)
		}
		verr := seqverify.Equivalent(context.Background(), orig, ret, seqverify.Options{})
		if errors.Is(verr, reach.ErrTooLarge) {
			verr = bitsim.RandomEquivalent(orig, ret, 0, 500, seed, bitsim.Options{})
		}
		if verr != nil {
			t.Fatalf("seed %d: retimed circuit not equivalent: %v", seed, verr)
		}
	}
}

// TestPropertyMinAreaKeepsPeriodAndEquivalence over random circuits.
func TestPropertyMinAreaKeepsPeriodAndEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		orig := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 5, Gates: 14, Seed: seed,
		})
		p, err := periodOf(orig, nil)
		if err != nil {
			t.Fatal(err)
		}
		ret, info, err := MinAreaUnderPeriod(context.Background(), orig, nil, p, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if info.RegsAfter > info.RegsBefore {
			t.Fatalf("seed %d: min-area increased registers %d -> %d",
				seed, info.RegsBefore, info.RegsAfter)
		}
		if q, err := periodOf(ret, nil); err != nil || q > p+1e-9 {
			t.Fatalf("seed %d: period constraint violated: %v", seed, q)
		}
		verr := seqverify.Equivalent(context.Background(), orig, ret, seqverify.Options{})
		if errors.Is(verr, reach.ErrTooLarge) {
			verr = bitsim.RandomEquivalent(orig, ret, 0, 500, seed, bitsim.Options{})
		}
		if verr != nil {
			t.Fatalf("seed %d: %v", seed, verr)
		}
	}
}
