package retime

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
)

// Info summarizes a retiming run.
type Info struct {
	PeriodBefore  float64
	PeriodAfter   float64
	RegsBefore    int
	RegsAfter     int
	ForwardMoves  int
	BackwardMoves int
	// RevertedMoves counts tentative moves undone because they missed the
	// period target or failed to reduce registers (greedy min-area only).
	RevertedMoves int
}

func (i Info) String() string {
	return fmt.Sprintf("period %.2f -> %.2f, regs %d -> %d (%d fwd, %d bwd moves)",
		i.PeriodBefore, i.PeriodAfter, i.RegsBefore, i.RegsAfter, i.ForwardMoves, i.BackwardMoves)
}

// record writes the run's transformation counters onto a span.
func (i Info) record(sp *obs.Span) {
	sp.Add("retime_moves_applied", int64(i.ForwardMoves+i.BackwardMoves))
	sp.Add("regs_forward_moved", int64(i.ForwardMoves))
	if i.RevertedMoves > 0 {
		sp.Add("retime_moves_reverted", int64(i.RevertedMoves))
	}
}

// arrivals computes Δ(v): the longest zero-weight-path delay ending at each
// vertex under lags r (nil = current weights).
func (g *Graph) arrivals(r []int) ([]float64, error) {
	nv := len(g.Nodes) + 1
	adj := make([][]int, nv)
	indeg := make([]int, nv)
	for _, e := range g.Edges {
		w := e.W
		if r != nil {
			w += r[e.To] - r[e.From]
		}
		if w == 0 && e.From != Host && e.To != Host {
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
	}
	arr := make([]float64, nv)
	queue := make([]int, 0, nv)
	for v := 1; v < nv; v++ {
		arr[v] = g.Delay[v]
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		processed++
		for _, v := range adj[u] {
			if a := arr[u] + g.Delay[v]; a > arr[v] {
				arr[v] = a
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if processed != nv-1 {
		return nil, fmt.Errorf("retime: zero-weight cycle")
	}
	return arr, nil
}

// FEAS runs the Leiserson–Saxe feasibility algorithm for clock period c.
// It returns a legal lag assignment achieving period ≤ c, or ok=false.
func (g *Graph) FEAS(c float64) (r []int, ok bool) {
	nv := len(g.Nodes) + 1
	r = make([]int, nv)
	const eps = 1e-9
	for iter := 0; iter <= nv; iter++ {
		arr, err := g.arrivals(r)
		if err != nil {
			return nil, false
		}
		violated := false
		for v := 1; v < nv; v++ {
			if arr[v] > c+eps {
				violated = true
			}
		}
		if !violated {
			if _, err := g.Retimed(r); err != nil {
				return nil, false // defensive: FEAS must keep legality
			}
			return r, true
		}
		if iter == nv {
			break
		}
		for v := 1; v < nv; v++ {
			if arr[v] > c+eps {
				r[v]++
			}
		}
	}
	return nil, false
}

// MinPeriodLags finds the minimum feasible clock period and matching lags.
// Graphs within the W/D matrix limit use the exact OPT formulation;
// larger graphs fall back to binary search over FEAS. FEAS with a pinned
// host vertex can only add registers to vertex inputs (non-negative lags),
// so on large graphs the result is a sound upper bound rather than the
// true optimum — an authentic limitation of increment-only retimers. The
// FEAS binary search checks ctx at every probe and returns a typed guard
// budget error once the deadline passes.
func (g *Graph) MinPeriodLags(ctx context.Context) ([]int, float64, error) {
	if len(g.Nodes)+1 <= MaxExactMinAreaVertices {
		if cerr := guard.Check(ctx, "retime.min_period"); cerr != nil {
			return nil, 0, cerr
		}
		if r, c, err := g.MinPeriodLagsOPT(); err == nil {
			return r, c, nil
		}
	}
	return g.minPeriodLagsFEAS(ctx)
}

// minPeriodLagsFEAS is the heuristic binary search over FEAS.
func (g *Graph) minPeriodLagsFEAS(ctx context.Context) ([]int, float64, error) {
	cur, err := g.Period(nil)
	if err != nil {
		return nil, 0, err
	}
	lo := 0.0
	for v := 1; v < len(g.Delay); v++ {
		if g.Delay[v] > lo {
			lo = g.Delay[v]
		}
	}
	hi := cur
	bestR, bestC := make([]int, len(g.Nodes)+1), cur
	if r, ok := g.FEAS(hi); ok {
		bestR, bestC = r, hi
	} else {
		// The current configuration achieves `cur` by construction; FEAS
		// failing here would be a bug, but fall back to the identity lags.
		bestR = make([]int, len(g.Nodes)+1)
		bestC = cur
	}
	if lo >= hi {
		return bestR, bestC, nil
	}
	for i := 0; i < 48 && hi-lo > 1e-6; i++ {
		if cerr := guard.Check(ctx, "retime.min_period"); cerr != nil {
			return nil, 0, fmt.Errorf("retime: binary search interrupted at [%g, %g]: %w", lo, hi, cerr)
		}
		mid := (lo + hi) / 2
		if r, ok := g.FEAS(mid); ok {
			// Tighten to the actual achieved period for exactness.
			if p, err := g.Period(r); err == nil && p <= bestC {
				bestR, bestC = r, p
				hi = p
			} else {
				hi = mid
			}
		} else {
			lo = mid
		}
	}
	return bestR, bestC, nil
}

// Apply realizes a lag assignment on the network by a sequence of atomic
// forward/backward moves, computing initial states along the way. On
// failure (typically: a backward move whose initial state has no preimage)
// the network is left in a valid, behaviour-preserving but partially
// retimed form and an error is returned. ctx is checked once per move
// sweep.
func Apply(ctx context.Context, n *network.Network, g *Graph, r []int) (fwd, bwd int, err error) {
	lag := make([]int, len(r))
	copy(lag, r)
	for {
		if cerr := guard.Check(ctx, "retime.apply"); cerr != nil {
			return fwd, bwd, fmt.Errorf("retime: lag realization interrupted after %d moves: %w", fwd+bwd, cerr)
		}
		done := true
		progress := false
		for i, v := range g.Nodes {
			id := i + 1
			if lag[id] == 0 {
				continue
			}
			done = false
			if lag[id] < 0 && ForwardRetimable(n, v) {
				if _, err := Forward(n, v); err == nil {
					lag[id]++
					fwd++
					progress = true
				}
			} else if lag[id] > 0 && BackwardRetimable(n, v) {
				if _, err := Backward(n, v); err == nil {
					lag[id]--
					bwd++
					progress = true
				}
			}
		}
		if done {
			return fwd, bwd, nil
		}
		if !progress {
			return fwd, bwd, fmt.Errorf("retime: cannot realize retiming (initial-state computation failed or moves blocked)")
		}
	}
}

// MinPeriod retimes a copy of the network to its minimum achievable clock
// period (Leiserson–Saxe), computing initial states for every moved
// register. It returns the retimed copy; the input is not modified.
// An error is returned when the optimal lags cannot be realized with
// consistent initial states — the failure mode the paper reports for
// conventional retiming on several benchmarks.
//
// It records a "retime.min_period" span on tr carrying applied-move
// counters, and a "retime_failed" counter on error. The lag search and the
// move realization check ctx and return a typed guard budget error once
// the deadline passes.
func MinPeriod(ctx context.Context, n *network.Network, d VertexDelay, tr *obs.Tracer) (*network.Network, Info, error) {
	sp := tr.Begin("retime.min_period")
	defer sp.End()
	net, info, err := minPeriod(ctx, n, d)
	info.record(sp)
	if err != nil {
		sp.Add("retime_failed", 1)
	} else {
		tr.Event("retime.min_period", map[string]any{
			"period_before": info.PeriodBefore, "period_after": info.PeriodAfter,
			"regs_before": info.RegsBefore, "regs_after": info.RegsAfter,
		})
	}
	return net, info, err
}

func minPeriod(ctx context.Context, n *network.Network, d VertexDelay) (*network.Network, Info, error) {
	var info Info
	work := n.Clone()
	g, err := BuildGraph(work, d)
	if err != nil {
		return nil, info, err
	}
	info.RegsBefore = len(work.Latches)
	info.PeriodBefore, err = g.Period(nil)
	if err != nil {
		return nil, info, err
	}
	r, c, err := g.MinPeriodLags(ctx)
	if err != nil {
		return nil, info, err
	}
	info.PeriodAfter = c
	fwd, bwd, err := Apply(ctx, work, g, r)
	info.ForwardMoves, info.BackwardMoves = fwd, bwd
	if err != nil {
		return nil, info, err
	}
	// Collapse duplicate registers created by shared-driver moves.
	MergeSiblingRegisters(work)
	info.RegsAfter = len(work.Latches)
	if err := work.Check(); err != nil {
		return nil, info, fmt.Errorf("retime: post-retiming network invalid: %w", err)
	}
	return work, info, nil
}
