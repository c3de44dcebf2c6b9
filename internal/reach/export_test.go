package reach

import (
	"context"
	"slices"

	"repro/internal/bdd"
	"repro/internal/network"
	"repro/internal/obs"
)

// AnalyzeFullBudget is Analyze without the staged node budget: the full
// MaxBDDNodes limit holds from the first node, as it does for a product.
// It is the reference the staged analysis is checked against.
func AnalyzeFullBudget(ctx context.Context, n *network.Network, lim Limits, tr *obs.Tracer) (*Analysis, error) {
	return analyze(ctx, []*network.Network{n}, nil, 0, lim, lim.MaxBDDNodes, tr)
}

// FreeManagers returns a copy of the manager free list.
func FreeManagers() []*bdd.Manager {
	managers.Lock()
	defer managers.Unlock()
	return slices.Clone(managers.free)
}

// DropFreeManagers empties the free list, so the next analysis starts on a
// manager from bdd.New.
func DropFreeManagers() {
	managers.Lock()
	defer managers.Unlock()
	managers.free = nil
}
