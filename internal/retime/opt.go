package retime

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/guard"
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
// limited to MaxExactMinAreaVertices vertices. ctx is checked before every
// feasibility probe.
func (g *Graph) MinPeriodLagsOPT(ctx context.Context) ([]int, float64, error) {
	r, c, _, err := g.minPeriodLagsOPT(ctx)
	return r, c, err
}

// optStats counts the work of one MinPeriodLagsOPT call.
type optStats struct {
	probes      int // feasibility probes run
	constraints int // constraint arcs laid out, summed over the probes
}

func (g *Graph) minPeriodLagsOPT(ctx context.Context) ([]int, float64, optStats, error) {
	var st optStats
	nv := len(g.Nodes) + 1
	if nv > MaxExactMinAreaVertices {
		return nil, 0, st, fmt.Errorf("retime: %d vertices exceeds the OPT matrix limit", nv)
	}
	w, d := g.wdMatrices()
	// Candidate periods: distinct finite D values.
	cands := make([]float64, 0, nv*nv)
	for i := 0; i < nv; i++ {
		wi, di := w[i], d[i]
		for j := 0; j < nv; j++ {
			if wi[j] < wdInf {
				cands = append(cands, di[j])
			}
		}
	}
	if len(cands) == 0 {
		return make([]int, nv), 0, st, nil
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	p := g.newOPTProbe(w, d)
	lo, hi := 0, len(cands)-1
	var bestR []int
	bestC := -1.0
	for lo <= hi {
		if err := guard.Check(ctx, "retime.min_period"); err != nil {
			return nil, 0, st, err
		}
		mid := (lo + hi) / 2
		c := cands[mid]
		if r, ok := p.feasible(c); ok {
			bestR, bestC = r, c
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	st.probes, st.constraints = p.probes, p.constraints
	if bestR == nil {
		return nil, 0, st, fmt.Errorf("retime: no feasible period among candidates")
	}
	// Tighten: the achieved period can undercut the tested candidate.
	if per, err := g.Period(bestR); err == nil && per < bestC {
		bestC = per
	}
	return bestR, bestC, st, nil
}

// optProbe is the feasibility workspace of one MinPeriodLagsOPT call,
// reused by every probe. A probe lays the candidate's constraint graph out
// flat in CSR form: constraint r(u) − r(v) ≤ b is the arc v→u of weight b,
// and the arcs leaving v are arcs[start[v]:start[v+1]].
type optProbe struct {
	g     *Graph
	w     [][]int
	d     [][]float64
	start []int32
	fill  []int32
	arcs  []optArc

	dist        []int
	parent      []int32 // vertex whose arc last lowered dist; -1 = the source
	stamp       []int32 // parent-cycle walk marks
	pass, later []int32 // this pass's queue and the next one's
	queued      []bool  // a vertex sits in one of the two at most once

	probes, constraints int
}

type optArc struct {
	to, b int32
}

func (g *Graph) newOPTProbe(w [][]int, d [][]float64) *optProbe {
	nv := len(w)
	return &optProbe{
		g: g, w: w, d: d,
		start:  make([]int32, nv+1),
		fill:   make([]int32, nv),
		dist:   make([]int, nv),
		parent: make([]int32, nv),
		stamp:  make([]int32, nv),
		pass:   make([]int32, 0, nv),
		later:  make([]int32, 0, nv),
		queued: make([]bool, nv),
	}
}

// feasible solves the difference constraints for target period c. It
// returns the shortest distances from a virtual source with a 0 arc to
// every vertex, shifted so that r[Host] = 0, or ok=false when the system
// has a negative cycle. Shortest distances are unique, so the lags do not
// depend on the order in which arcs are relaxed.
func (p *optProbe) feasible(c float64) ([]int, bool) {
	p.probes++
	if !p.layout(c) || !p.relax() {
		return nil, false
	}
	r := make([]int, len(p.dist))
	off := p.dist[Host]
	for i := range r {
		r[i] = p.dist[i] - off
	}
	return r, true
}

// layout fills the CSR constraint graph for period c: count, prefix-sum,
// fill. It returns false when a self-constraint r(u) − r(u) ≤ W(u,u) − 1
// is violated outright: a zero-register cycle slower than c.
func (p *optProbe) layout(c float64) bool {
	const eps = 1e-9
	nv := len(p.dist)
	cnt := p.start
	clear(cnt)
	for _, e := range p.g.Edges {
		cnt[e.To+1]++
	}
	for u := 0; u < nv; u++ {
		wu, du := p.w[u], p.d[u]
		for v := 0; v < nv; v++ {
			if wu[v] >= wdInf || du[v] <= c+eps {
				continue
			}
			if u == v {
				if wu[v]-1 < 0 {
					return false
				}
				continue
			}
			cnt[v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		cnt[v+1] += cnt[v]
	}
	total := int(p.start[nv])
	p.constraints += total
	p.arcs = slices.Grow(p.arcs[:0], total)[:total]
	copy(p.fill, p.start[:nv])
	for _, e := range p.g.Edges {
		p.arcs[p.fill[e.To]] = optArc{to: int32(e.From), b: int32(e.W)}
		p.fill[e.To]++
	}
	for u := 0; u < nv; u++ {
		wu, du := p.w[u], p.d[u]
		for v := 0; v < nv; v++ {
			if u == v || wu[v] >= wdInf || du[v] <= c+eps {
				continue
			}
			p.arcs[p.fill[v]] = optArc{to: int32(u), b: int32(wu[v] - 1)}
			p.fill[v]++
		}
	}
	return true
}

// relax runs FIFO-queue Bellman–Ford from the virtual source: every
// vertex starts at distance 0 in the first pass's queue, and a vertex
// whose distance drops joins the next pass unless it still waits in this
// one. After pass k every distance is at most the shortest walk of k+1
// arcs, so without a negative cycle the queue is empty after nv passes. A
// cycle in the parent graph is always a negative cycle, and the parent
// graph holds one soon after a negative cycle's arcs are relaxed, so each
// pass ends with a parent-cycle check; the nv-pass bound is a backstop.
func (p *optProbe) relax() bool {
	nv := len(p.dist)
	clear(p.dist)
	pass, later := p.pass[:0], p.later[:0]
	for v := range nv {
		p.parent[v] = -1
		pass = append(pass, int32(v))
		p.queued[v] = true
	}
	for k := 1; len(pass) > 0; k++ {
		if k > nv {
			return false
		}
		for _, v := range pass {
			p.queued[v] = false
			dv := p.dist[v]
			for _, a := range p.arcs[p.start[v]:p.start[v+1]] {
				if nd := dv + int(a.b); nd < p.dist[a.to] {
					p.dist[a.to] = nd
					p.parent[a.to] = v
					if !p.queued[a.to] {
						p.queued[a.to] = true
						later = append(later, a.to)
					}
				}
			}
		}
		if p.parentCycle() {
			return false
		}
		pass, later = later, pass[:0]
	}
	return true
}

// parentCycle reports whether the parent pointers form a cycle. Each walk
// follows parents from a start vertex, marking what it visits with the
// start's id, and stops at the source or at a vertex already marked: by
// itself (a cycle) or by an earlier walk (already explored).
func (p *optProbe) parentCycle() bool {
	for i := range p.stamp {
		p.stamp[i] = -1
	}
	for s := range int32(len(p.stamp)) {
		x := s
		for x >= 0 && p.stamp[x] < 0 {
			p.stamp[x] = s
			x = p.parent[x]
		}
		if x >= 0 && p.stamp[x] == s {
			return true
		}
	}
	return false
}
