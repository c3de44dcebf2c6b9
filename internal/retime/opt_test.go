package retime

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/network"
)

func TestOPTAgreesWithFEASOnPipeline(t *testing.T) {
	n := pipeline3(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	_, cFeas, err := g.MinPeriodLags(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rOpt, cOpt, err := g.MinPeriodLagsOPT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cFeas-cOpt) > 1e-6 {
		t.Fatalf("FEAS period %v != OPT period %v", cFeas, cOpt)
	}
	if _, err := g.Retimed(rOpt); err != nil {
		t.Fatalf("OPT lags illegal: %v", err)
	}
	if p, err := g.Period(rOpt); err != nil || p > cOpt+1e-9 {
		t.Fatalf("OPT lags miss the period: %v (%v)", p, err)
	}
}

func TestOPTAgreesWithFEASOnPaperExample(t *testing.T) {
	n := bench.BuildPaperExample()
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	_, cFeas, _ := g.MinPeriodLags(context.Background())
	_, cOpt, err := g.MinPeriodLagsOPT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cFeas != 2 || cOpt != 2 {
		t.Fatalf("both must find period 2: FEAS=%v OPT=%v", cFeas, cOpt)
	}
}

// TestOPTvsFEASOnRandomCircuits is the cross-check property: the exact OPT
// formulation is never worse than the increment-only FEAS heuristic, and
// both produce legal lag assignments that achieve their claimed periods.
// (FEAS with a pinned host vertex cannot express forward moves, so strict
// OPT wins are possible — seed 16 exhibits one.)
func TestOPTvsFEASOnRandomCircuits(t *testing.T) {
	strictWin := false
	for seed := int64(1); seed <= 25; seed++ {
		n := bench.Synthetic(bench.Profile{
			Name: "x", PIs: 3, POs: 2, FFs: 4, Gates: 18, Seed: seed,
		})
		g, err := BuildGraph(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rFeas, cFeas, err := g.minPeriodLagsFEAS(context.Background())
		if err != nil {
			t.Fatalf("seed %d: FEAS: %v", seed, err)
		}
		rOpt, cOpt, err := g.MinPeriodLagsOPT(context.Background())
		if err != nil {
			t.Fatalf("seed %d: OPT: %v", seed, err)
		}
		if cOpt > cFeas+1e-6 {
			t.Fatalf("seed %d: OPT %v worse than FEAS %v", seed, cOpt, cFeas)
		}
		if cOpt < cFeas-1e-6 {
			strictWin = true
		}
		for _, pair := range []struct {
			r []int
			c float64
		}{{rFeas, cFeas}, {rOpt, cOpt}} {
			if _, err := g.Retimed(pair.r); err != nil {
				t.Fatalf("seed %d: illegal lags: %v", seed, err)
			}
			if p, err := g.Period(pair.r); err != nil || p > pair.c+1e-9 {
				t.Fatalf("seed %d: lags miss the period: %v (%v)", seed, p, err)
			}
		}
	}
	if !strictWin {
		t.Log("no strict OPT win observed in this seed range (acceptable)")
	}
}

func TestOPTRespectsMatrixLimit(t *testing.T) {
	// A graph larger than the matrix limit must refuse cleanly.
	n := network.New("big")
	a := n.AddPI("a")
	prev := a
	for i := 0; i < MaxExactMinAreaVertices+4; i++ {
		prev = n.AddLogic("", []*network.Node{prev}, buf())
	}
	n.AddPO("y", prev)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.MinPeriodLagsOPT(context.Background()); err == nil {
		t.Fatal("matrix limit not enforced")
	}
}

// referenceWD is the W/D computation wdMatrices replaced: the plain
// Floyd–Warshall triple loop over every (i, k, j).
func referenceWD(g *Graph) ([][]int, [][]float64) {
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
	for _, e := range g.Edges {
		du := g.Delay[e.From]
		if e.W < w[e.From][e.To] || (e.W == w[e.From][e.To] && du > d[e.From][e.To]) {
			w[e.From][e.To] = e.W
			d[e.From][e.To] = du
		}
	}
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
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			if w[i][j] < inf {
				d[i][j] += g.Delay[j]
			}
		}
	}
	return w, d
}

// referenceOPTFeasible is the feasibility probe optProbe replaced: it
// appends every constraint into a fresh arc list and runs full
// Bellman–Ford passes over it, so an infeasible candidate always runs all
// nv passes. It is the oracle for optProbe.feasible.
func referenceOPTFeasible(g *Graph, w [][]int, d [][]float64, c float64) ([]int, bool) {
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
	dist := make([]int, nv)
	for iter := 0; iter < nv; iter++ {
		changed := false
		for _, a := range arcs {
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
	return nil, false
}

// checkOPTAgainstReference asserts that wdMatrices equals referenceWD bit
// for bit, and that optProbe.feasible and referenceOPTFeasible return the
// same verdict and the same lags at candidate periods of g: at every
// candidate when spread is 0; otherwise at every candidate the binary
// search of MinPeriodLagsOPT probes plus spread evenly spaced ones.
func checkOPTAgainstReference(t testing.TB, g *Graph, spread int) {
	t.Helper()
	w, d := g.wdMatrices()
	wRef, dRef := referenceWD(g)
	for i := range wRef {
		if !slices.Equal(w[i], wRef[i]) {
			t.Fatalf("W row %d differs from the reference", i)
		}
		for j := range dRef[i] {
			if math.Float64bits(d[i][j]) != math.Float64bits(dRef[i][j]) {
				t.Fatalf("D(%d,%d) = %v, reference %v", i, j, d[i][j], dRef[i][j])
			}
		}
	}
	seen := map[float64]bool{}
	var cands []float64
	for i := range w {
		for j := range w[i] {
			if w[i][j] < wdInf && !seen[d[i][j]] {
				seen[d[i][j]] = true
				cands = append(cands, d[i][j])
			}
		}
	}
	sort.Float64s(cands)
	p := g.newOPTProbe(w, d)
	check := func(k int) bool {
		c := cands[k]
		r, ok := p.feasible(c)
		rRef, okRef := referenceOPTFeasible(g, w, d, c)
		if ok != okRef || !slices.Equal(r, rRef) {
			t.Fatalf("c=%v: probe ok=%v, reference ok=%v (lags equal: %v)", c, ok, okRef, slices.Equal(r, rRef))
		}
		return ok
	}
	if spread == 0 {
		for k := range cands {
			check(k)
		}
		return
	}
	for lo, hi := 0, len(cands)-1; lo <= hi; {
		if mid := (lo + hi) / 2; check(mid) {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	for i := range spread {
		check(i * (len(cands) - 1) / max(spread-1, 1))
	}
}

// TestOPTMatchesReference runs the differential at every candidate period
// of random circuits; the Table I graphs are in opt_flows_test.go.
func TestOPTMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g, err := BuildGraph(bench.Synthetic(bench.Profile{
			Name: "x", PIs: 3, POs: 2, FFs: 4, Gates: 18, Seed: seed,
		}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkOPTAgainstReference(t, g, 0)
	}
}

// TestOPTSelfConstraint: a zero-register cycle through one vertex is a
// self-constraint r(u) − r(u) ≤ −1 at every period below its delay, which
// the probe must reject outright (the constraint graph has no arc for it).
func TestOPTSelfConstraint(t *testing.T) {
	// host → 1 → host with a register on each side, and a combinational
	// self-loop on 1.
	g := &Graph{
		Nodes: make([]*network.Node, 1),
		Edges: []Edge{{Host, 1, 1}, {1, 1, 0}, {1, Host, 1}},
		Delay: []float64{0, 1},
	}
	w, d := g.wdMatrices()
	if w[1][1] != 0 {
		t.Fatalf("W(1,1) = %d, want 0", w[1][1])
	}
	p := g.newOPTProbe(w, d)
	if _, ok := p.feasible(d[1][1] - 0.5); ok {
		t.Fatalf("period %v below the self-loop delay %v accepted", d[1][1]-0.5, d[1][1])
	}
	if _, ok := p.feasible(d[1][1]); !ok {
		t.Fatalf("period %v rejected", d[1][1])
	}
	checkOPTAgainstReference(t, g, 0)
}
