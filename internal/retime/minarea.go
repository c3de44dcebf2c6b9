package retime

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
)

// This file implements constrained min-area retiming: minimize the number
// of registers subject to the clock period not exceeding a target c — the
// post-processing step of the paper's Algorithm 1 ("Retime to minimize
// registers under the same delay constraints"). Up to
// MaxExactMinAreaVertices the LP is solved exactly through its dual
// (min-cost flow), counting the registers on a multi-fanout stem once;
// above it min-area is sibling merging plus constant-register removal.

// MaxExactMinAreaVertices bounds the O(V³) W/D matrix computation of the
// exact formulation.
const MaxExactMinAreaVertices = 420

// wdInf marks an unreachable pair in the W matrix.
const wdInf = int(1) << 30

// wdMatrices computes the Leiserson–Saxe W and D matrices:
// W(u,v) = minimum register count over u→v paths,
// D(u,v) = maximum path delay among minimum-register paths.
func (g *Graph) wdMatrices() ([][]int, [][]float64) {
	nv := len(g.Nodes) + 1
	w := make([][]int, nv)
	d := make([][]float64, nv)
	for i := range w {
		w[i] = make([]int, nv)
		d[i] = make([]float64, nv)
		for j := range w[i] {
			w[i][j] = wdInf
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
	// Row k keeps its infinite entries while k is the pivot (only i = k
	// writes to it, and only where W(k,j) is finite), so each pivot visits
	// the finite columns of row k alone.
	cols := make([]int, 0, nv)
	for k := 1; k < nv; k++ {
		wk, dk := w[k], d[k]
		cols = cols[:0]
		for j, x := range wk {
			if x < wdInf {
				cols = append(cols, j)
			}
		}
		for i := 0; i < nv; i++ {
			wi, di := w[i], d[i]
			if wi[k] >= wdInf {
				continue
			}
			for _, j := range cols {
				nw := wi[k] + wk[j]
				nd := di[k] + dk[j]
				if nw < wi[j] || (nw == wi[j] && nd > di[j]) {
					wi[j] = nw
					di[j] = nd
				}
			}
		}
	}
	// Finalize: D(u,v) = prefix delay + d(v).
	for i := 0; i < nv; i++ {
		wi, di := w[i], d[i]
		for j := 0; j < nv; j++ {
			if wi[j] < wdInf {
				di[j] += g.Delay[j]
			}
		}
	}
	return w, d
}

// MinAreaLags solves constrained min-area retiming exactly, returning lags
// minimizing the register count subject to period ≤ c, where the registers
// on a logic vertex's fanout edges are shared.
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
	const eps = 1e-9
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			if w[u][v] >= wdInf || d[u][v] <= c+eps {
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
	// Registers on a logic vertex's fanout edges are one shared chain of
	// max_i w_r(e_i) registers (Leiserson–Saxe mirror vertex). A vertex
	// with k > 1 fanout edges gets a variable m_u with
	// r(v_i) − m_u ≤ wmax(u) − w(e_i), so m_u − r(u) + wmax(u) is that
	// maximum. The host keeps per-edge costs: its edges carry distinct PIs.
	fanout := make([][]Edge, nv)
	for _, e := range g.Edges {
		fanout[e.From] = append(fanout[e.From], e)
	}
	coef := make([]int64, nv)
	for u, es := range fanout {
		if u == Host || len(es) < 2 {
			for _, e := range es {
				coef[e.To]++
				coef[e.From]--
			}
			continue
		}
		wmax := 0
		for _, e := range es {
			wmax = max(wmax, e.W)
		}
		m := len(coef)
		coef = append(coef, 1)
		coef[u]--
		for _, e := range es {
			cons = append(cons, constraint{u: e.To, v: m, bound: int64(wmax - e.W)})
		}
	}
	r64, ok := solveDifferenceLP(len(coef), coef, cons)
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
// without exceeding clock period c: the exact lags when the graph is within
// MaxExactMinAreaVertices and their realization lowers the physical
// register count, then sibling merging and constant-register removal. It
// records a "retime.min_area" span on tr carrying the move counters. The
// lag realization checks ctx and returns a typed guard budget error once
// the deadline passes.
func MinAreaUnderPeriod(ctx context.Context, n *network.Network, c float64, tr *obs.Tracer) (*network.Network, Info, error) {
	sp := tr.Begin("retime.min_area")
	defer sp.End()
	net, info, err := minAreaUnderPeriod(ctx, n, c)
	info.record(sp)
	if err != nil {
		sp.Add("retime_failed", 1)
	}
	return net, info, err
}

func minAreaUnderPeriod(ctx context.Context, n *network.Network, c float64) (*network.Network, Info, error) {
	var info Info
	work := n.Clone()
	g, err := BuildGraph(work)
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
	// MinAreaLags refuses graphs above MaxExactMinAreaVertices.
	if r, err := g.MinAreaLags(c); err == nil {
		attempt := work.Clone()
		ag, err := BuildGraph(attempt)
		if err != nil {
			return nil, info, err
		}
		fwd, bwd, err := Apply(ctx, attempt, ag, r)
		if errors.Is(err, guard.ErrBudget) {
			return nil, info, err
		}
		MergeSiblingRegisters(attempt)
		// Initial values can keep apart registers the LP counts as one
		// chain; adopt the solution only when the physical register count
		// actually improved.
		if err == nil && len(attempt.Latches) < len(work.Latches) {
			info.ForwardMoves, info.BackwardMoves = fwd, bwd
			work = attempt
		}
	}
	MergeSiblingRegisters(work)
	RemoveConstantRegisters(work)
	info.RegsAfter = len(work.Latches)
	info.PeriodAfter, _ = periodOf(work)
	if err := work.Check(); err != nil {
		return nil, info, fmt.Errorf("retime: post-min-area network invalid: %w", err)
	}
	return work, info, nil
}

func periodOf(n *network.Network) (float64, error) {
	g, err := BuildGraph(n)
	if err != nil {
		return 0, err
	}
	return g.Period(nil)
}
