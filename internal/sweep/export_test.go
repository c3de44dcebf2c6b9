package sweep

import (
	"context"
	"fmt"

	"repro/internal/aig"
	"repro/internal/network"
)

// Depth and width hooks: production runs Registers at K = 1 and deepens
// ProveEquivalent from K = 1, so a pair that proves at K = 1 never reaches
// a deeper unrolling, and both always shard proofs GOMAXPROCS wide. These
// run the engine at a chosen depth and width (<= 0 selects GOMAXPROCS).
var (
	// RegistersAtDepth is Registers at induction depth k and the given width.
	RegistersAtDepth = registers
	// ProveEquivalentFrom is ProveEquivalent deepening from K = minK at the
	// given width.
	ProveEquivalentFrom = proveEquivalent
)

// FirstRoundChunks sets up the first proof round of ProveEquivalent(a, b,
// delay) at K = 1 and returns its chunk count and a runner that discharges
// chunk i under ctx on its slot's freshly reset instances, reporting its
// SAT calls and error.
func FirstRoundChunks(a, b *network.Network, delay int) (int, func(ctx context.Context, i int) (int64, error), error) {
	g, pos, err := aig.FromProduct(a, b)
	if err != nil {
		return 0, nil, err
	}
	e := newEngine(g, pos, delay, 1, 1, Options{})
	e.candidates()
	e.assignReps()
	active := make([]int, len(e.classes))
	for i := range active {
		active[i] = i
	}
	chunks := e.makeChunks(active)
	return len(chunks), func(ctx context.Context, i int) (int64, error) {
		cr, err := e.runChunk(ctx, i, chunks[i])
		return cr.solves, err
	}, nil
}

// WarmRound proves b against a at induction depth k on one worker and
// returns a runner of one more full round on the converged engine, whose
// slots are warm from the proof. The runner reports an error unless the
// round is clean: it re-proves every class and output obligation.
func WarmRound(ctx context.Context, a, b *network.Network, delay, k int) (func() error, error) {
	g, pos, err := aig.FromProduct(a, b)
	if err != nil {
		return nil, err
	}
	e := newEngine(g, pos, delay, k, 1, Options{})
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return func() error {
		cexes, unknowns, poUnknown, err := e.round(ctx, true)
		if err == nil && len(cexes)+len(unknowns)+poUnknown > 0 {
			err = fmt.Errorf("round not clean: %d cexes, %d unknowns, %d output unknowns", len(cexes), len(unknowns), poUnknown)
		}
		return err
	}, nil
}
