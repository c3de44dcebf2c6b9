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

// Info summarizes a retiming run.
type Info struct {
	PeriodBefore  float64
	PeriodAfter   float64
	RegsBefore    int
	RegsAfter     int
	ForwardMoves  int
	BackwardMoves int
}

func (i Info) String() string {
	return fmt.Sprintf("period %.2f -> %.2f, regs %d -> %d (%d fwd, %d bwd moves)",
		i.PeriodBefore, i.PeriodAfter, i.RegsBefore, i.RegsAfter, i.ForwardMoves, i.BackwardMoves)
}

// record writes the run's transformation counters onto a span.
func (i Info) record(sp *obs.Span) {
	sp.Add("retime_moves_applied", int64(i.ForwardMoves+i.BackwardMoves))
	sp.Add("regs_forward_moved", int64(i.ForwardMoves))
}

// kernel is the arrival-time workspace of one graph, built once and reused
// by every FEAS iteration: the internal (host-free) edges in CSR form,
// grouped by source in edge order and carrying their base weights, plus the
// Kahn buffers. An arrival pass allocates nothing.
type kernel struct {
	g     *Graph
	start []int // out-edges of u are to[start[u]:start[u+1]]
	to, w []int
	indeg []int
	arr   []float64 // arr[v] = Δ(v) after arrivals
	queue []int
	bound []int // register distance to the host; built by the first feas
}

func (g *Graph) newKernel() *kernel {
	nv := len(g.Nodes) + 1
	t := &kernel{
		g:     g,
		start: make([]int, nv+1),
		indeg: make([]int, nv),
		arr:   make([]float64, nv),
		queue: make([]int, nv),
	}
	for _, e := range g.Edges {
		if e.From != Host && e.To != Host {
			t.start[e.From+1]++
		}
	}
	for u := 0; u < nv; u++ {
		t.start[u+1] += t.start[u]
	}
	t.to, t.w = make([]int, t.start[nv]), make([]int, t.start[nv])
	next := append([]int(nil), t.start[:nv]...)
	for _, e := range g.Edges {
		if e.From != Host && e.To != Host {
			t.to[next[e.From]], t.w[next[e.From]] = e.To, e.W
			next[e.From]++
		}
	}
	return t
}

// arrivals computes Δ(v) into t.arr: the longest zero-weight-path delay
// ending at each vertex under lags r. The host contributes delay 0 and
// cannot sit on a zero-weight internal path. Each Δ(v) is a max of path
// sums, so it does not depend on the order Kahn's algorithm visits vertices.
func (t *kernel) arrivals(r []int) error {
	nv := len(t.arr)
	clear(t.indeg)
	for u := 1; u < nv; u++ {
		for i := t.start[u]; i < t.start[u+1]; i++ {
			if t.w[i]+r[t.to[i]]-r[u] == 0 {
				t.indeg[t.to[i]]++
			}
		}
	}
	tail := 0
	for v := 1; v < nv; v++ {
		t.arr[v] = t.g.Delay[v]
		if t.indeg[v] == 0 {
			t.queue[tail] = v
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		u := t.queue[head]
		for i := t.start[u]; i < t.start[u+1]; i++ {
			v := t.to[i]
			if t.w[i]+r[v]-r[u] != 0 {
				continue
			}
			if a := t.arr[u] + t.g.Delay[v]; a > t.arr[v] {
				t.arr[v] = a
			}
			t.indeg[v]--
			if t.indeg[v] == 0 {
				t.queue[tail] = v
				tail++
			}
		}
	}
	if tail != nv-1 {
		return fmt.Errorf("retime: zero-weight cycle (combinational loop)")
	}
	return nil
}

// period is the clock period under lags r (nil = current weights): the
// largest arrival.
func (t *kernel) period(r []int) (float64, error) {
	if r == nil {
		r = make([]int, len(t.arr))
	}
	if err := t.arrivals(r); err != nil {
		return 0, err
	}
	p := 0.0
	for _, a := range t.arr[1:] {
		p = max(p, a)
	}
	return p, nil
}

// registerBounds returns, per vertex v, the fewest registers on any
// v ⇝ host path (math.MaxInt when there is none): Dijkstra from the host
// over reversed edges, with a bucket queue since weights are small
// non-negative integers.
func (g *Graph) registerBounds() []int {
	nv := len(g.Nodes) + 1
	in := make([][]int, nv) // in[v] = indices of the edges into v
	for k, e := range g.Edges {
		in[e.To] = append(in[e.To], k)
	}
	bound := make([]int, nv)
	for v := range bound {
		bound[v] = math.MaxInt
	}
	bound[Host] = 0
	buckets := [][]int{{Host}}
	for d := 0; d < len(buckets); d++ {
		for i := 0; i < len(buckets[d]); i++ { // zero-weight edges grow buckets[d]
			u := buckets[d][i]
			if bound[u] != d {
				continue
			}
			for _, k := range in[u] {
				e := g.Edges[k]
				if nd := d + e.W; nd < bound[e.From] {
					bound[e.From] = nd
					for len(buckets) <= nd {
						buckets = append(buckets, nil)
					}
					buckets[nd] = append(buckets[nd], e.From)
				}
			}
		}
	}
	return bound
}

// feas runs the Leiserson–Saxe feasibility algorithm for clock period c.
// It returns a legal lag assignment achieving period ≤ c, or ok=false.
//
// A probe stops as soon as some lag r[v] exceeds bound[v], the register
// count of the lightest v ⇝ host path P. FEAS keeps r[Host] = 0 and only
// raises lags, so P's retimed weight W(P) − r[v] is negative from then on:
// some edge of P stays negative at every later iterate, the final Retimed
// check cannot pass, and the full-length probe would return false too.
// ctx is checked once per iteration.
func (t *kernel) feas(ctx context.Context, c float64) (r []int, ok bool, err error) {
	if t.bound == nil {
		t.bound = t.g.registerBounds()
	}
	nv := len(t.arr)
	r = make([]int, nv)
	const eps = 1e-9
	for iter := 0; iter <= nv; iter++ {
		if cerr := guard.Check(ctx, "retime.min_period"); cerr != nil {
			return nil, false, cerr
		}
		if t.arrivals(r) != nil {
			return nil, false, nil
		}
		violated := false
		for v := 1; v < nv; v++ {
			if t.arr[v] > c+eps {
				violated = true
				break
			}
		}
		if !violated {
			if _, err := t.g.Retimed(r); err != nil {
				return nil, false, nil // defensive: FEAS must keep legality
			}
			return r, true, nil
		}
		if iter == nv {
			break
		}
		for v := 1; v < nv; v++ {
			if t.arr[v] > c+eps {
				r[v]++
				if r[v] > t.bound[v] {
					return nil, false, nil
				}
			}
		}
	}
	return nil, false, nil
}

// MinPeriodLags finds the minimum feasible clock period and matching lags.
// Graphs within the W/D matrix limit use the exact OPT formulation;
// larger graphs fall back to binary search over FEAS. FEAS with a pinned
// host vertex can only add registers to vertex inputs (non-negative lags),
// so on large graphs the result is a sound upper bound rather than the
// true optimum — an authentic limitation of increment-only retimers. OPT
// checks ctx before every probe and FEAS at every iteration of every
// probe; both return a typed guard budget error once the deadline passes.
func (g *Graph) MinPeriodLags(ctx context.Context) ([]int, float64, error) {
	if len(g.Nodes)+1 <= MaxExactMinAreaVertices {
		r, c, err := g.MinPeriodLagsOPT(ctx)
		if err == nil || errors.Is(err, guard.ErrBudget) {
			return r, c, err
		}
	}
	return g.minPeriodLagsFEAS(ctx)
}

// minPeriodLagsFEAS is the heuristic binary search over FEAS.
func (g *Graph) minPeriodLagsFEAS(ctx context.Context) ([]int, float64, error) {
	t := g.newKernel()
	cur, err := t.period(nil)
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
	r, ok, err := t.feas(ctx, hi)
	if err != nil {
		return nil, 0, fmt.Errorf("retime: feasibility probe at the current period %g interrupted: %w", hi, err)
	}
	if ok {
		bestR, bestC = r, hi
	}
	// Otherwise keep the identity lags: the current configuration achieves
	// `cur` by construction, so FEAS failing here would be a bug.
	if lo >= hi {
		return bestR, bestC, nil
	}
	for i := 0; i < 48 && hi-lo > 1e-6; i++ {
		mid := (lo + hi) / 2
		r, ok, err := t.feas(ctx, mid)
		if err != nil {
			return nil, 0, fmt.Errorf("retime: binary search interrupted at [%g, %g]: %w", lo, hi, err)
		}
		if ok {
			// Tighten to the actual achieved period for exactness.
			if p, err := t.period(r); err == nil && p <= bestC {
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
func MinPeriod(ctx context.Context, n *network.Network, tr *obs.Tracer) (*network.Network, Info, error) {
	sp := tr.Begin("retime.min_period")
	defer sp.End()
	net, info, err := minPeriod(ctx, n)
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

func minPeriod(ctx context.Context, n *network.Network) (*network.Network, Info, error) {
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
