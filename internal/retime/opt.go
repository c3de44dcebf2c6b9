package retime

import (
	"fmt"
	"sort"
)

// This file implements the original Leiserson–Saxe OPT formulation of
// min-period retiming: binary search over the candidate clock periods (the
// distinct D(u,v) values), testing feasibility with Bellman–Ford on the
// difference-constraint system
//
//	r(u) − r(v) ≤ w(e)          for every edge u→v
//	r(u) − r(v) ≤ W(u,v) − 1    whenever D(u,v) > c.
//
// It is quadratic in memory (W/D matrices), so MinPeriodLags uses it only
// for graphs of at most MaxExactMinAreaVertices vertices and falls back to
// the binary search over FEAS above that. On small graphs it also
// cross-checks FEAS: OPT is never worse (property-tested in opt_test.go).

// MinPeriodLagsOPT computes optimal lags via the W/D formulation. It is
// limited to MaxExactMinAreaVertices vertices.
func (g *Graph) MinPeriodLagsOPT() ([]int, float64, error) {
	nv := len(g.Nodes) + 1
	if nv > MaxExactMinAreaVertices {
		return nil, 0, fmt.Errorf("retime: %d vertices exceeds the OPT matrix limit", nv)
	}
	w, d := g.wdMatrices()
	const inf = int(1) << 30
	// Candidate periods: distinct finite D values.
	var cands []float64
	seen := map[float64]bool{}
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			if w[i][j] < inf && !seen[d[i][j]] {
				seen[d[i][j]] = true
				cands = append(cands, d[i][j])
			}
		}
	}
	if len(cands) == 0 {
		return make([]int, nv), 0, nil
	}
	sort.Float64s(cands)
	lo, hi := 0, len(cands)-1
	var bestR []int
	bestC := -1.0
	for lo <= hi {
		mid := (lo + hi) / 2
		c := cands[mid]
		if r, ok := g.optFeasible(w, d, c); ok {
			bestR, bestC = r, c
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestR == nil {
		return nil, 0, fmt.Errorf("retime: no feasible period among candidates")
	}
	// Tighten: the achieved period can undercut the tested candidate.
	if p, err := g.Period(bestR); err == nil && p < bestC {
		bestC = p
	}
	return bestR, bestC, nil
}

// optFeasible solves the difference constraints for target period c by
// Bellman–Ford, returning lags with r[Host] normalized to 0.
func (g *Graph) optFeasible(w [][]int, d [][]float64, c float64) ([]int, bool) {
	nv := len(g.Nodes) + 1
	const inf = int(1) << 30
	type arc struct {
		u, v, b int
	}
	var arcs []arc
	for _, e := range g.Edges {
		arcs = append(arcs, arc{e.From, e.To, e.W})
	}
	const eps = 1e-9
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			if w[u][v] >= inf || d[u][v] <= c+eps {
				continue
			}
			b := w[u][v] - 1
			if u == v {
				if b < 0 {
					return nil, false
				}
				continue
			}
			arcs = append(arcs, arc{u, v, b})
		}
	}
	// Bellman–Ford from a virtual source with 0 arcs to all vertices:
	// dist[v] satisfies dist[u] ≤ dist[v] + b for arc (u,v,b), i.e.
	// r := dist is feasible (r(u) − r(v) ≤ b).
	dist := make([]int, nv)
	for iter := 0; iter < nv; iter++ {
		changed := false
		for _, a := range arcs {
			// Constraint r(u) - r(v) ≤ b ⇒ relax dist[u] ≤ dist[v] + b.
			if dist[a.v]+a.b < dist[a.u] {
				dist[a.u] = dist[a.v] + a.b
				changed = true
			}
		}
		if !changed {
			r := make([]int, nv)
			off := dist[Host]
			for i := range r {
				r[i] = dist[i] - off
			}
			return r, true
		}
	}
	return nil, false // negative cycle: infeasible
}
