package retime

import (
	"context"
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/timing"
)

// This file implements constrained min-area retiming: minimize the number
// of registers subject to the clock period not exceeding a target c — the
// post-processing step of the paper's Algorithm 1 ("Retime to minimize
// registers under the same delay constraints"). Small instances are solved
// exactly via the LP dual (min-cost flow); large instances fall back to a
// greedy peephole optimizer built from the same atomic moves.

// MaxExactMinAreaVertices bounds the O(V³) W/D matrix computation of the
// exact formulation.
const MaxExactMinAreaVertices = 420

// wdMatrices computes the Leiserson–Saxe W and D matrices:
// W(u,v) = minimum register count over u→v paths,
// D(u,v) = maximum path delay among minimum-register paths.
func (g *Graph) wdMatrices() ([][]int, [][]float64) {
	nv := len(g.Nodes) + 1
	const inf = int(1) << 30
	w := make([][]int, nv)
	d := make([][]float64, nv)
	for i := range w {
		w[i] = make([]int, nv)
		d[i] = make([]float64, nv)
		for j := range w[i] {
			w[i][j] = inf
			d[i][j] = math.Inf(-1)
		}
	}
	// Edge relaxation seeds: cost pairs (w(e), −d(u)) per LS; we carry
	// accumulated delay of the source-side prefix and add d(v) at the end.
	for _, e := range g.Edges {
		du := g.Delay[e.From]
		if e.W < w[e.From][e.To] || (e.W == w[e.From][e.To] && du > d[e.From][e.To]) {
			w[e.From][e.To] = e.W
			d[e.From][e.To] = du
		}
	}
	// The host is the environment, not a circuit vertex: combinational
	// paths never pass through it, so it may appear only as an endpoint.
	for k := 1; k < nv; k++ {
		for i := 0; i < nv; i++ {
			if w[i][k] >= inf {
				continue
			}
			for j := 0; j < nv; j++ {
				if w[k][j] >= inf {
					continue
				}
				nw := w[i][k] + w[k][j]
				nd := d[i][k] + d[k][j]
				if nw < w[i][j] || (nw == w[i][j] && nd > d[i][j]) {
					w[i][j] = nw
					d[i][j] = nd
				}
			}
		}
	}
	// Finalize: D(u,v) = prefix delay + d(v).
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			if w[i][j] < inf {
				d[i][j] += g.Delay[j]
			}
		}
	}
	return w, d
}

// MinAreaLags solves constrained min-area retiming exactly, returning lags
// minimizing the total edge register count subject to period ≤ c.
func (g *Graph) MinAreaLags(c float64) ([]int, error) {
	nv := len(g.Nodes) + 1
	if nv > MaxExactMinAreaVertices {
		return nil, fmt.Errorf("retime: %d vertices exceeds exact min-area limit", nv)
	}
	w, d := g.wdMatrices()
	var cons []constraint
	for _, e := range g.Edges {
		cons = append(cons, constraint{u: e.From, v: e.To, bound: int64(e.W)})
	}
	const inf = int(1) << 30
	const eps = 1e-9
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			if w[u][v] >= inf || d[u][v] <= c+eps {
				continue
			}
			b := int64(w[u][v] - 1)
			if u == v {
				if b < 0 {
					return nil, fmt.Errorf("retime: period %.3f infeasible (critical cycle)", c)
				}
				continue
			}
			cons = append(cons, constraint{u: u, v: v, bound: b})
		}
	}
	coef := make([]int64, nv)
	for _, e := range g.Edges {
		coef[e.To]++   // indegree
		coef[e.From]-- // outdegree
	}
	r64, ok := solveDifferenceLP(nv, coef, cons)
	if !ok {
		return nil, fmt.Errorf("retime: min-area LP infeasible")
	}
	// Normalize the host's weakly connected component to r[Host] = 0;
	// other components shift to their own representative.
	comp := g.components()
	shift := make(map[int]int64)
	shift[comp[Host]] = r64[Host]
	for v := 0; v < nv; v++ {
		if _, ok := shift[comp[v]]; !ok {
			shift[comp[v]] = r64[v]
		}
	}
	r := make([]int, nv)
	for v := 0; v < nv; v++ {
		r[v] = int(r64[v] - shift[comp[v]])
	}
	if _, err := g.Retimed(r); err != nil {
		return nil, fmt.Errorf("retime: min-area solution illegal: %w", err)
	}
	if p, err := g.Period(r); err != nil || p > c+eps {
		return nil, fmt.Errorf("retime: min-area solution misses period (p=%v, err=%v)", p, err)
	}
	return r, nil
}

// components labels weakly connected components of the graph.
func (g *Graph) components() []int {
	nv := len(g.Nodes) + 1
	adj := make([][]int, nv)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	comp := make([]int, nv)
	for i := range comp {
		comp[i] = -1
	}
	cid := 0
	for v := 0; v < nv; v++ {
		if comp[v] >= 0 {
			continue
		}
		stack := []int{v}
		comp[v] = cid
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, x := range adj[u] {
				if comp[x] < 0 {
					comp[x] = cid
					stack = append(stack, x)
				}
			}
		}
		cid++
	}
	return comp
}

// MinAreaUnderPeriod retimes a copy of the network to minimize registers
// without exceeding clock period c. Exact (flow-based) below the size
// limit, greedy peephole otherwise or when the exact lags cannot be
// realized with consistent initial states. It records a "retime.min_area"
// span on tr carrying applied/reverted move counters. The exact lag
// realization and the greedy peephole sweep check ctx and return a typed
// guard budget error once the deadline passes.
func MinAreaUnderPeriod(ctx context.Context, n *network.Network, d timing.DelayModel, c float64, tr *obs.Tracer) (*network.Network, Info, error) {
	sp := tr.Begin("retime.min_area")
	defer sp.End()
	net, info, err := minAreaUnderPeriod(ctx, n, d, c)
	info.record(sp)
	if err != nil {
		sp.Add("retime_failed", 1)
	}
	return net, info, err
}

func minAreaUnderPeriod(ctx context.Context, n *network.Network, d timing.DelayModel, c float64) (*network.Network, Info, error) {
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
	if info.PeriodBefore > c+1e-9 {
		return nil, info, fmt.Errorf("retime: network already misses the period target")
	}
	exactOK := false
	if len(g.Nodes)+1 <= MaxExactMinAreaVertices {
		if r, err := g.MinAreaLags(c); err == nil {
			attempt := work.Clone()
			ag, aerr := BuildGraph(attempt, d)
			if aerr == nil {
				if fwd, bwd, aerr := Apply(ctx, attempt, ag, r); aerr == nil {
					MergeSiblingRegisters(attempt)
					// The LP minimizes per-edge register counts (no
					// fanout sharing in the basic Leiserson–Saxe model);
					// adopt its solution only when the physical register
					// count actually improved.
					if len(attempt.Latches) < len(work.Latches) {
						info.ForwardMoves, info.BackwardMoves = fwd, bwd
						work = attempt
						exactOK = true
					}
				}
			}
		}
	}
	MergeSiblingRegisters(work)
	RemoveConstantRegisters(work)
	// Greedy fallback is quadratic in the worst case (tentative clones);
	// very large circuits rely on sibling merging alone.
	if !exactOK && work.NumLogicNodes() <= 1200 {
		if gerr := greedyMinArea(ctx, work, d, c, &info); gerr != nil {
			return nil, info, gerr
		}
	}
	MergeSiblingRegisters(work)
	RemoveConstantRegisters(work)
	info.RegsAfter = len(work.Latches)
	info.PeriodAfter, _ = periodOf(work, d)
	if err := work.Check(); err != nil {
		return nil, info, fmt.Errorf("retime: post-min-area network invalid: %w", err)
	}
	return work, info, nil
}

func periodOf(n *network.Network, d timing.DelayModel) (float64, error) {
	g, err := BuildGraph(n, d)
	if err != nil {
		return 0, err
	}
	return g.Period(nil)
}

// greedyMinArea performs tentative atomic moves that reduce the register
// count, keeping each only if the clock period stays within c. On budget
// exhaustion it stops and reports the typed error (moves already committed
// are behaviour-preserving, but the caller treats the pass as failed).
func greedyMinArea(ctx context.Context, n *network.Network, d timing.DelayModel, c float64, info *Info) error {
	const eps = 1e-9
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, v := range append([]*network.Node(nil), n.Nodes()...) {
			if cerr := guard.Check(ctx, "retime.min_area"); cerr != nil {
				return fmt.Errorf("retime: greedy min-area interrupted: %w", cerr)
			}
			if v.Kind != network.KindLogic {
				continue
			}
			if n.FindNode(v.Name) != v {
				continue // removed during this pass
			}
			// Candidate backward move: wins when the node drives more
			// registers than it has fanins.
			if len(n.LatchesDrivenBy(v)) > len(v.Fanins) && BackwardRetimable(n, v) {
				before := len(n.Latches)
				snapshot := n.Clone()
				if _, err := Backward(n, v); err == nil {
					MergeSiblingRegisters(n)
					p, perr := periodOf(n, d)
					if perr == nil && p <= c+eps && len(n.Latches) < before {
						improved = true
						info.BackwardMoves++
						continue
					}
				}
				restore(n, snapshot)
				info.RevertedMoves++
				continue
			}
			// Candidate forward move: wins when it frees more fanin
			// registers than the single register it creates.
			if ForwardRetimable(n, v) {
				frees := 0
				for _, fi := range v.Fanins {
					if n.NumFanouts(fi) == 1 {
						frees++
					}
				}
				if frees < 2 {
					continue
				}
				before := len(n.Latches)
				snapshot := n.Clone()
				if _, err := Forward(n, v); err == nil {
					MergeSiblingRegisters(n)
					p, perr := periodOf(n, d)
					if perr == nil && p <= c+eps && len(n.Latches) < before {
						improved = true
						info.ForwardMoves++
						continue
					}
				}
				restore(n, snapshot)
				info.RevertedMoves++
			}
		}
		if !improved {
			return nil
		}
	}
	return nil
}

// restore copies the snapshot's contents back into n (n's identity is
// preserved for callers holding the pointer).
func restore(n *network.Network, snapshot *network.Network) {
	*n = *snapshot
}
