package retime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/network"
)

// referenceArrivals is the arrival computation feas replaced: it rebuilds
// the zero-weight adjacency as [][]int on every call.
func referenceArrivals(g *Graph, r []int) ([]float64, error) {
	nv := len(g.Nodes) + 1
	adj := make([][]int, nv)
	indeg := make([]int, nv)
	for _, e := range g.Edges {
		if e.W+r[e.To]-r[e.From] == 0 && e.From != Host && e.To != Host {
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
	}
	arr := make([]float64, nv)
	var queue []int
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
		return nil, fmt.Errorf("zero-weight cycle")
	}
	return arr, nil
}

// referenceFEAS is full-length Leiserson–Saxe FEAS without the
// register-distance bound: every failing probe runs all |V|+1 iterations
// and fails only at the final legality check. It is the oracle for feas.
func referenceFEAS(g *Graph, c float64) ([]int, bool) {
	nv := len(g.Nodes) + 1
	r := make([]int, nv)
	const eps = 1e-9
	for iter := 0; iter <= nv; iter++ {
		arr, err := referenceArrivals(g, r)
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
				return nil, false
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

// checkFEASAgainstReference asserts that feas and referenceFEAS return
// the same (r, ok) at c = p0·k/20 for k = 1..20, p0 the current period.
func checkFEASAgainstReference(t *testing.T, g *Graph) {
	t.Helper()
	p0, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	tm := g.newKernel()
	for k := 1; k <= 20; k++ {
		c := p0 * float64(k) / 20
		r, ok, err := tm.feas(context.Background(), c)
		if err != nil {
			t.Fatalf("c=%g: %v", c, err)
		}
		rRef, okRef := referenceFEAS(g, c)
		if ok != okRef || !slices.Equal(r, rRef) {
			t.Fatalf("c=%g: feas ok=%v, reference ok=%v (lags equal: %v)", c, ok, okRef, slices.Equal(r, rRef))
		}
	}
}

// TestFEASMatchesReference: stopping a probe at the register-distance
// bound changes no answer.
func TestFEASMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 25; seed++ {
			g, err := BuildGraph(bench.Synthetic(bench.Profile{
				Name: "x", PIs: 3, POs: 2, FFs: 4, Gates: 18, Seed: seed,
			}))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkFEASAgainstReference(t, g)
		}
	})
	for _, name := range []string{"s641", "s1196", "s1238", "s5378"} {
		t.Run(name, func(t *testing.T) {
			if name == "s5378" && testing.Short() {
				t.Skip("the reference takes seconds on s5378")
			}
			checkFEASAgainstReference(t, registryGraph(t, name))
		})
	}
}

func registryGraph(t *testing.T, name string) *Graph {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no circuit %s", name)
	}
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFEASRegisterBoundEdgeCases covers a vertex that cannot reach the host
// (no bound) and a probe the bound stops at its first increment.
func TestFEASRegisterBoundEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []Edge
		bound []int
		c     float64
		ok    bool
	}{{
		// 1 → 2 ⇄ 3 with a register on each side of the loop; nothing leaves
		// 2 or 3 for the host, so their lags may grow without bound.
		name:  "host unreachable",
		edges: []Edge{{Host, 1, 0}, {1, Host, 0}, {1, 2, 0}, {2, 3, 1}, {3, 2, 1}},
		bound: []int{0, 0, math.MaxInt, math.MaxInt},
		c:     1,
		ok:    true,
	}, {
		// host → 1 → 2 → host with no register: c = 1 needs a register
		// after vertex 1, which the host path of vertex 2 cannot supply.
		name:  "bound fires at first increment",
		edges: []Edge{{Host, 1, 0}, {1, 2, 0}, {2, Host, 0}},
		bound: []int{0, 0, 0},
		c:     1,
		ok:    false,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			nv := len(tc.bound)
			g := &Graph{Nodes: make([]*network.Node, nv-1), Edges: tc.edges, Delay: make([]float64, nv)}
			for v := 1; v < nv; v++ {
				g.Delay[v] = 1
			}
			if got := g.registerBounds(); !slices.Equal(got, tc.bound) {
				t.Fatalf("bounds %v, want %v", got, tc.bound)
			}
			r, ok, err := g.newKernel().feas(context.Background(), tc.c)
			if err != nil || ok != tc.ok {
				t.Fatalf("feas = %v, %v, %v; want ok=%v", r, ok, err, tc.ok)
			}
			if rRef, okRef := referenceFEAS(g, tc.c); ok != okRef || !slices.Equal(r, rRef) {
				t.Fatalf("feas (%v, %v) != reference (%v, %v)", r, ok, rRef, okRef)
			}
			checkFEASAgainstReference(t, g)
		})
	}
}

// tripContext is a context whose deadline passes after its first n
// checks: the budget runs out while the lag search is already under way.
type tripContext struct {
	context.Context
	n    int
	done chan struct{}
}

func newTripContext(n int) *tripContext {
	c := &tripContext{Context: context.Background(), n: n, done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *tripContext) Done() <-chan struct{} {
	if c.n > 0 {
		c.n--
		return nil
	}
	return c.done
}

func (c *tripContext) Err() error {
	if c.n > 0 {
		return nil
	}
	return context.DeadlineExceeded
}

// TestMinPeriodLagsHonoursCancelledContext covers both lag searches: s641
// (200 vertices) takes OPT, s5378 (1575) takes FEAS. Each must stop with a
// guard budget error whether the deadline has passed at entry or passes
// after the search has made its first check.
func TestMinPeriodLagsHonoursCancelledContext(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  bool
	}{{"s641", true}, {"s5378", false}} {
		g := registryGraph(t, tc.name)
		if opt := len(g.Nodes)+1 <= MaxExactMinAreaVertices; opt != tc.opt {
			t.Fatalf("%s has %d vertices; the test needs OPT=%v", tc.name, len(g.Nodes)+1, tc.opt)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for _, ctx := range []struct {
			name string
			ctx  context.Context
		}{{"cancelled", cancelled}, {"trips after one check", newTripContext(1)}} {
			t.Run(tc.name+"/"+ctx.name, func(t *testing.T) {
				if _, _, err := g.MinPeriodLags(ctx.ctx); !errors.Is(err, guard.ErrBudget) {
					t.Fatalf("err = %v, want a guard budget error", err)
				}
			})
		}
	}
}
