package aig

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
)

// simCombinational evaluates all combinational outputs (POs then latch
// next-states) over 64 parallel input patterns: word i of the result is
// the bit-parallel value of output i.
func simCombinational(g *Graph, piW, latchW []uint64) []uint64 {
	w := make([]uint64, len(g.nodes))
	for i, id := range g.pis {
		w[id] = piW[i]
	}
	for i, la := range g.latches {
		w[la.Out] = latchW[i]
	}
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if !g.IsAnd(id) {
			continue
		}
		n := g.nodes[id]
		a := w[n.f0.Node()]
		if n.f0.Compl() {
			a = ^a
		}
		b := w[n.f1.Node()]
		if n.f1.Compl() {
			b = ^b
		}
		w[id] = a & b
	}
	ev := func(l Lit) uint64 {
		v := w[l.Node()]
		if l.Compl() {
			v = ^v
		}
		return v
	}
	out := make([]uint64, 0, len(g.pos)+len(g.latches))
	for _, po := range g.pos {
		out = append(out, ev(po.Lit))
	}
	for _, la := range g.latches {
		out = append(out, ev(la.Next))
	}
	return out
}

// assertSameFunction drives both graphs (identical PI/latch interfaces)
// with seeded random patterns and compares every combinational output.
func assertSameFunction(t *testing.T, a, b *Graph, seed int64) {
	t.Helper()
	if len(a.pis) != len(b.pis) || len(a.latches) != len(b.latches) ||
		len(a.pos) != len(b.pos) {
		t.Fatalf("interface mismatch: %d/%d/%d vs %d/%d/%d PIs/latches/POs",
			len(a.pis), len(a.latches), len(a.pos), len(b.pis), len(b.latches), len(b.pos))
	}
	r := rand.New(rand.NewSource(seed))
	for round := 0; round < 16; round++ {
		piW := make([]uint64, len(a.pis))
		for i := range piW {
			piW[i] = r.Uint64()
		}
		latchW := make([]uint64, len(a.latches))
		for i := range latchW {
			latchW[i] = r.Uint64()
		}
		av := simCombinational(a, piW, latchW)
		bv := simCombinational(b, piW, latchW)
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("round %d: combinational output %d diverges: %016x vs %016x",
					round, i, av[i], bv[i])
			}
		}
	}
}

func rewriteSuite(t *testing.T) map[string]*Graph {
	t.Helper()
	graphs := map[string]*Graph{}
	for _, c := range bench.TableI() {
		src, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if testing.Short() && src.NumLogicNodes() > 600 {
			continue
		}
		if src.NumLogicNodes() > 3000 {
			continue // keep the unit suite fast
		}
		g, err := FromNetwork(src)
		if err != nil {
			t.Fatalf("%s: FromNetwork: %v", c.Name, err)
		}
		graphs[c.Name] = g
	}
	for _, p := range []bench.Profile{
		{Name: "rw_regheavy", PIs: 4, POs: 4, FFs: 40, Gates: 120, Seed: 0xA7},
		{Name: "rw_wide", PIs: 32, POs: 24, FFs: 6, Gates: 180, Seed: 0xB8},
		{Name: "rw_deep", PIs: 3, POs: 2, FFs: 9, Gates: 260, Seed: 0xC9},
	} {
		g, err := FromNetwork(bench.Synthetic(p))
		if err != nil {
			t.Fatalf("%s: FromNetwork: %v", p.Name, err)
		}
		graphs[p.Name] = g
	}
	return graphs
}

// TestRewritePreservesFunction is the correctness property of the pass:
// the rebuilt graph computes the same combinational function, passes the
// structural Check, and never grows on the suite.
func TestRewritePreservesFunction(t *testing.T) {
	for name, g := range rewriteSuite(t) {
		g.Sweep()
		before := g.NumAnds()
		ng, stats, err := g.rewrite(context.Background(), 3)
		if err != nil {
			t.Fatalf("%s: Rewrite: %v", name, err)
		}
		if err := ng.Check(); err != nil {
			t.Fatalf("%s: rewritten graph invalid: %v", name, err)
		}
		assertSameFunction(t, g, ng, 0x5eed^int64(len(name)))
		if ng.NumAnds() > before {
			t.Errorf("%s: rewrite grew the graph: %d -> %d ANDs", name, before, ng.NumAnds())
		}
		if stats.Waves == 0 && before > 0 {
			t.Errorf("%s: no waves processed over %d ANDs", name, before)
		}
		t.Logf("%s: %d -> %d ANDs (depth %d -> %d), applied=%d gain=%d pruned=%d waves=%d",
			name, before, ng.NumAnds(), g.Depth(), ng.Depth(),
			stats.Applied, stats.Gain, stats.CutsPruned, stats.Waves)
	}
}

// TestRewriteDeterministicAcrossWorkers is the levelization contract: the
// rebuilt graph is identical — node for node, literal for literal — at
// any worker width, because per-node decisions never depend on sharding.
func TestRewriteDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range rewriteSuite(t) {
		g.Sweep()
		var ref *Graph
		var refStats RewriteStats
		for _, w := range []int{1, 2, 3, 8} {
			ng, stats, err := g.rewrite(context.Background(), w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if ref == nil {
				ref, refStats = ng, stats
				continue
			}
			if stats != refStats {
				t.Fatalf("%s workers=%d: stats diverge: %+v vs %+v", name, w, stats, refStats)
			}
			if len(ng.nodes) != len(ref.nodes) {
				t.Fatalf("%s workers=%d: %d nodes vs %d at workers=1",
					name, w, len(ng.nodes), len(ref.nodes))
			}
			for id := range ng.nodes {
				if ng.nodes[id] != ref.nodes[id] || ng.levels[id] != ref.levels[id] {
					t.Fatalf("%s workers=%d: node %d differs", name, w, id)
				}
			}
			for i := range ng.pos {
				if ng.pos[i] != ref.pos[i] {
					t.Fatalf("%s workers=%d: PO %d differs", name, w, i)
				}
			}
			for i := range ng.latches {
				if ng.latches[i] != ref.latches[i] {
					t.Fatalf("%s workers=%d: latch %d differs", name, w, i)
				}
			}
		}
	}
}

// TestRewriteCollapsesRedundantCone: (a·b) + (a·b̄) is a 3-AND cone the
// constructor's local rules cannot see through (the two ANDs are shared
// hash entries, the OR is a fresh node) but a 2-leaf cut proves it equal
// to a. The rewriter must collapse it.
func TestRewriteCollapsesRedundantCone(t *testing.T) {
	g := New("collapse")
	a := g.AddPI("a")
	b := g.AddPI("b")
	f := g.Or(g.And(a, b), g.And(a, b.Not()))
	g.AddPO("f", f)
	// A second output keeps b referenced so the graph stays well-formed.
	g.AddPO("keep_b", b)
	before := g.NumAnds()
	ng, stats, err := g.Rewrite(context.Background())
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if err := ng.Check(); err != nil {
		t.Fatalf("rewritten graph invalid: %v", err)
	}
	assertSameFunction(t, g, ng, 77)
	if ng.NumAnds() != 0 {
		t.Fatalf("cone not collapsed: %d -> %d ANDs", before, ng.NumAnds())
	}
	if stats.Applied == 0 || stats.Gain == 0 {
		t.Fatalf("collapse not accounted: %+v", stats)
	}
}

// TestRewritePinned pins what one pass reports and returns on the swept,
// balanced AIGs of s5378 and s9234, as the AIG flow first rewrites them:
// the stats and the rebuilt graph's AND count and depth. Any change to cut
// enumeration, cut truth tables, NPN canonicalization or the acceptance
// rule moves these numbers.
func TestRewritePinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats RewriteStats
		ands  int
		depth int32
	}{
		{"s5378", RewriteStats{Applied: 12, Gain: 20, CutsPruned: 3144, Waves: 34}, 2382, 34},
		{"s9234", RewriteStats{Applied: 12, Gain: 17, CutsPruned: 6565, Waves: 42}, 4459, 42},
	} {
		c, ok := bench.ByName(tc.name)
		if !ok {
			t.Fatalf("no circuit %s", tc.name)
		}
		src, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromNetwork(src)
		if err != nil {
			t.Fatal(err)
		}
		g.Sweep()
		ng, stats, err := g.Balance().Rewrite(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats != tc.stats || ng.NumAnds() != tc.ands || ng.Depth() != tc.depth {
			t.Errorf("%s: %+v, %d ANDs, depth %d; want %+v, %d ANDs, depth %d",
				tc.name, stats, ng.NumAnds(), ng.Depth(), tc.stats, tc.ands, tc.depth)
		}
	}
}

// TestRewriteCancellation: a pre-cancelled context aborts between waves
// without panicking and reports the context error.
func TestRewriteCancellation(t *testing.T) {
	g, err := FromNetwork(bench.Synthetic(bench.Profile{
		Name: "cancel", PIs: 8, POs: 4, FFs: 4, Gates: 200, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.rewrite(ctx, 2); err == nil {
		t.Fatal("cancelled rewrite returned no error")
	}
}

// TestDerivedStateInvalidation is the memoization regression of this PR:
// interleaving sweeps, strash construction, and balancing must never let
// a caller observe stale memoized fanout counts or levels. Every step
// cross-checks the memo against a from-scratch recompute.
func TestDerivedStateInvalidation(t *testing.T) {
	freshFanouts := func(g *Graph) []int32 {
		refs := make([]int32, len(g.nodes))
		for id := int32(1); id < int32(len(g.nodes)); id++ {
			if g.IsAnd(id) {
				n := g.nodes[id]
				refs[n.f0.Node()]++
				refs[n.f1.Node()]++
			}
		}
		for _, po := range g.pos {
			refs[po.Lit.Node()]++
		}
		for _, la := range g.latches {
			refs[la.Next.Node()]++
		}
		return refs
	}
	freshLevels := func(g *Graph) []int32 {
		lv := make([]int32, len(g.nodes))
		for id := int32(1); id < int32(len(g.nodes)); id++ {
			if g.IsAnd(id) {
				n := g.nodes[id]
				l := lv[n.f0.Node()]
				if l2 := lv[n.f1.Node()]; l2 > l {
					l = l2
				}
				lv[id] = l + 1
			}
		}
		return lv
	}
	check := func(step string, g *Graph) {
		t.Helper()
		got := g.FanoutCounts()
		want := freshFanouts(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: stale fanout memo at node %d: %d, fresh %d", step, i, got[i], want[i])
			}
		}
		wantLv := freshLevels(g)
		for i := range wantLv {
			if g.levels[i] != wantLv[i] {
				t.Fatalf("%s: stale level at node %d: %d, fresh %d", step, i, g.levels[i], wantLv[i])
			}
		}
	}

	g, err := FromNetwork(bench.Synthetic(bench.Profile{
		Name: "memo", PIs: 6, POs: 3, FFs: 5, Gates: 80, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	check("initial", g)

	// Prime the memo, then sweep: counts must re-derive for the compacted
	// node numbering, not replay the pre-sweep slice.
	_ = g.FanoutCounts()
	g.Sweep()
	check("after sweep", g)

	// Prime again, then strash new structure onto the graph (And both
	// extends the node array and can change fanout of existing nodes).
	_ = g.FanoutCounts()
	a := MkLit(g.pis[0], false)
	b := MkLit(g.pis[1], false)
	x := g.And(g.And(a, b), g.Xor(a, b).Not())
	g.AddPO("extra", x)
	check("after strash+AddPO", g)

	// Balance returns a fresh graph; its memo must describe the balanced
	// structure. Then mutate latch wiring on it and re-check.
	bg := g.Balance()
	check("after balance", bg)
	if len(bg.latches) > 0 {
		_ = bg.FanoutCounts()
		bg.SetLatchNext(0, bg.latches[0].Next.Not())
		check("after SetLatchNext", bg)
	}

	// A second sweep after all of the above still agrees.
	_ = bg.FanoutCounts()
	bg.Sweep()
	check("after final sweep", bg)
}

// BenchmarkRewrite measures one full pass on a mid-size synthetic.
func BenchmarkRewrite(b *testing.B) {
	g, err := FromNetwork(bench.Synthetic(bench.Profile{
		Name: "bench", PIs: 16, POs: 8, FFs: 32, Gates: 2000, Seed: 9}))
	if err != nil {
		b.Fatal(err)
	}
	g.Sweep()
	getNPNLib()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.rewrite(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}
