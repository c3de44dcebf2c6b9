package reach_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/reach"
)

// TestPropertyPartitionedMatchesMonolithic is the correctness anchor of the
// partitioned image computation: over random FSMs, every combination of
// image mode, variable order, clustering granularity and dynamic reordering
// must compute the exact same reachable set — same fixpoint depth, same
// state count, and bitwise-identical membership over the full 2^L state
// space — as the historical monolithic relation in positional order.
func TestPropertyPartitionedMatchesMonolithic(t *testing.T) {
	mk := func(im reach.ImageMode, vo reach.VarOrder) reach.Limits {
		lim := reach.DefaultLimits
		lim.Image = im
		lim.Order = vo
		return lim
	}
	fine := mk(reach.ImagePartitioned, reach.OrderTopo)
	fine.ClusterNodes = 1 // every per-latch relation its own cluster
	sifted := mk(reach.ImagePartitioned, reach.OrderTopo)
	sifted.Reorder = true
	sifted.SiftNodes = 1 // sift on every fixpoint iteration
	configs := []struct {
		name string
		lim  reach.Limits
	}{
		{"monolithic/positional", mk(reach.ImageMonolithic, reach.OrderPositional)},
		{"monolithic/topo", mk(reach.ImageMonolithic, reach.OrderTopo)},
		{"partitioned/positional", mk(reach.ImagePartitioned, reach.OrderPositional)},
		{"partitioned/topo", mk(reach.ImagePartitioned, reach.OrderTopo)},
		{"partitioned/finest", fine},
		{"partitioned/sifted", sifted},
	}

	for seed := int64(1); seed <= 10; seed++ {
		src := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 5, Gates: 14, Seed: seed,
		})
		ffs := len(src.Latches)
		var ref *reach.Analysis
		for _, cfg := range configs {
			a, err := reach.Analyze(context.Background(), src, cfg.lim, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.name, err)
			}
			if ref == nil {
				ref = a
				continue
			}
			if a.Depth != ref.Depth {
				t.Errorf("seed %d %s: depth %d != reference %d",
					seed, cfg.name, a.Depth, ref.Depth)
			}
			if got, want := a.NumReachable(), ref.NumReachable(); got != want {
				t.Errorf("seed %d %s: %v reachable states != reference %v",
					seed, cfg.name, got, want)
			}
			// Exhaustive membership: the same state must be in (or out of)
			// both reachable sets for all 2^L assignments. Variable indices
			// are identical across configs; only level placement differs.
			env := make([]bool, a.M.NumVars())
			refEnv := make([]bool, ref.M.NumVars())
			for s := 0; s < 1<<ffs; s++ {
				for i := 0; i < ffs; i++ {
					bit := s>>i&1 == 1
					env[a.CurVar[i]] = bit
					refEnv[ref.CurVar[i]] = bit
				}
				if a.M.Eval(a.Reachable, env) != ref.M.Eval(ref.Reachable, refEnv) {
					t.Fatalf("seed %d %s: state %0*b membership differs from reference",
						seed, cfg.name, ffs, s)
				}
			}
		}
	}
}
