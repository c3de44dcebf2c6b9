package reach

import (
	"context"

	"repro/internal/network"
	"repro/internal/obs"
)

// AnalyzeFullBudget is Analyze without the staged node budget: the full
// MaxBDDNodes limit holds from the first node, as it does for a product.
// It is the reference the staged analysis is checked against.
func AnalyzeFullBudget(ctx context.Context, n *network.Network, lim Limits, tr *obs.Tracer) (*Analysis, error) {
	return analyze(ctx, []*network.Network{n}, nil, 0, lim, lim.MaxBDDNodes, tr)
}
