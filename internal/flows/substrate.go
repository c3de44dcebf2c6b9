package flows

import (
	"context"

	"repro/internal/aig"
	"repro/internal/network"
	"repro/internal/obs"
)

// The substrate selects the technology-independent representation the
// flows restructure before mapping. The SOP substrate (the default) is the
// paper's two-level machinery — exact but bounded by cover minimization
// cost around the s5378 scale. The AIG substrate routes the restructuring
// step through internal/aig: structural hashing plus depth-driven balance,
// which holds two orders of magnitude more gates in the same budget. Both
// substrates feed the same genlib mapper, so Metrics stay comparable, and
// the SOP path doubles as the correctness oracle for the AIG path
// (TestPropertyAigMatchesSOP).
const (
	// SubstrateSOP is the sum-of-products network substrate (default).
	SubstrateSOP = "sop"
	// SubstrateAIG is the And-Inverter Graph substrate.
	SubstrateAIG = "aig"
)

// SubstrateNames reports the accepted Config.Substrate values.
func SubstrateNames() []string { return []string{SubstrateSOP, SubstrateAIG} }

// KnownSubstrate reports whether name selects a substrate ("" is the
// default SOP).
func KnownSubstrate(name string) bool {
	return name == "" || name == SubstrateSOP || name == SubstrateAIG
}

// substrate resolves the configured substrate, defaulting to SOP.
func (c Config) substrate() string {
	if c.Substrate == "" {
		return SubstrateSOP
	}
	return c.Substrate
}

// DefaultRewriteIters is the rewrite+balance iteration bound of the AIG
// substrate's restructuring loop when Config.RewriteIters is zero. Two
// rounds captures nearly all of the gain in practice — the first rewrite
// exposes sharing the balance pass then restructures, the second harvests
// what that restructuring exposed — while keeping the pass budget flat.
const DefaultRewriteIters = 2

// rewriteIters resolves the configured iteration bound.
func (c Config) rewriteIters() int {
	if c.RewriteIters <= 0 {
		return DefaultRewriteIters
	}
	return c.RewriteIters
}

// aigRestructure is the AIG substrate's technology-independent
// optimization: convert, sweep, then a keep-best loop of NPN cut
// rewriting and balancing until fixpoint or the iteration budget. The
// span carries the substrate counters (aig_nodes, aig_strash_hits,
// aig_levels, aig_rewrite_gain, aig_cuts_pruned, aig_wave_count) that the
// serving layer's Prometheus bridge exports.
func aigRestructure(ctx context.Context, work *network.Network, tr *obs.Tracer, cfg Config) (*network.Network, error) {
	sp := tr.Begin("aig.restructure")
	defer sp.End()
	g, err := aig.FromNetwork(work)
	if err != nil {
		return nil, err
	}
	g.Sweep()
	strashHits := g.StrashHits()
	best := g.Balance()
	strashHits += best.StrashHits()
	// Keep-best by (depth, nodes): the flows map for minimum delay, so a
	// depth regression is never traded for area, and rewriting gains at
	// equal depth are kept. The loop input advances to the latest balanced
	// graph even when it is not the best so far — rewriting can pass
	// through a plateau — but only the best is lowered.
	betterThan := func(a, b *aig.Graph) bool {
		if a.Depth() != b.Depth() {
			return a.Depth() < b.Depth()
		}
		return a.NumAnds() < b.NumAnds()
	}
	var gain, pruned, waves int64
	cur := best
	for i := 0; i < cfg.rewriteIters(); i++ {
		ng, stats, rerr := cur.Rewrite(ctx, aig.RewriteOptions{Workers: cfg.Workers})
		if rerr != nil {
			return nil, rerr
		}
		gain += stats.Gain
		pruned += stats.CutsPruned
		waves += stats.Waves
		strashHits += ng.StrashHits()
		bal := ng.Balance()
		strashHits += bal.StrashHits()
		if betterThan(bal, best) {
			best = bal
		}
		if stats.Applied == 0 {
			break // fixpoint: another round would see the same cuts
		}
		cur = bal
	}
	sp.Add("aig_nodes", int64(best.NumAnds()))
	sp.Add("aig_strash_hits", strashHits)
	sp.Add("aig_levels", int64(best.Depth()))
	sp.Add("aig_rewrite_gain", gain)
	sp.Add("aig_cuts_pruned", pruned)
	sp.Add("aig_wave_count", waves)
	return best.ToSubjectNetwork()
}
