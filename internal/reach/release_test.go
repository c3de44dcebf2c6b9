package reach_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/seqverify"
)

// product is the verification product of one Table I flow output against
// its source, as VerifyVerdict analyses it.
type product struct {
	name      string
	src, impl *network.Network
	pairing   *network.Pairing
	delay     int
}

func tableIProduct(tb testing.TB, circuit, flow string) product {
	tb.Helper()
	c, ok := bench.ByName(circuit)
	if !ok {
		tb.Fatalf("%s not in registry", circuit)
	}
	src, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := flows.RunFlow(context.Background(), flow, src, genlib.Lib2(), flows.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := network.Pair(src, r.Net)
	if err != nil {
		tb.Fatal(err)
	}
	return product{circuit + " " + flow, src, r.Net, p, r.PrefixK}
}

func (p product) analyze() (*reach.Analysis, error) {
	return reach.AnalyzeProduct(context.Background(), p.src, p.impl, p.pairing, p.delay, reach.DefaultLimits, nil)
}

// verdict is the outcome of the exact equivalence check on the product.
func (p product) verdict() string {
	if err := seqverify.Equivalent(context.Background(), p.src, p.impl, seqverify.Options{Delay: p.delay}, nil); err != nil {
		return err.Error()
	}
	return "equivalent"
}

// checkFreeList fails unless the free list holds distinct managers, at
// most GOMAXPROCS of them.
func checkFreeList(t *testing.T) []*bdd.Manager {
	t.Helper()
	free := reach.FreeManagers()
	if len(free) > runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d managers, more than GOMAXPROCS = %d", len(free), runtime.GOMAXPROCS(0))
	}
	seen := map[*bdd.Manager]bool{}
	for _, m := range free {
		if seen[m] {
			t.Fatal("free list holds one manager twice")
		}
		seen[m] = true
	}
	return free
}

// TestReleaseReturnsManagerOnce checks the free list's bookkeeping: a
// released analysis has no manager, a second Release does nothing, the
// next analysis reuses the released manager, a failed analysis returns its
// manager itself, and the list never holds more than GOMAXPROCS managers.
func TestReleaseReturnsManagerOnce(t *testing.T) {
	c, _ := bench.ByName("bbtas")
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	analyze := func() *reach.Analysis {
		t.Helper()
		a, err := reach.Analyze(ctx, n, reach.DefaultLimits, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	reach.DropFreeManagers()
	a := analyze()
	m := a.M
	a.Release()
	if a.M != nil {
		t.Fatal("a released analysis still has its manager")
	}
	if free := checkFreeList(t); len(free) != 1 || free[0] != m {
		t.Fatalf("free list after one Release: %v, want just the released manager", free)
	}
	a.Release()
	if free := checkFreeList(t); len(free) != 1 {
		t.Fatalf("a second Release changed the free list to %d managers", len(free))
	}
	if b := analyze(); b.M != m || len(reach.FreeManagers()) != 0 {
		t.Fatal("the next analysis did not take the released manager")
	}

	_, err = reach.Analyze(ctx, n, reach.Limits{MaxLatches: 32, MaxBDDNodes: 8}, nil)
	if !errors.Is(err, reach.ErrTooLarge) {
		t.Fatalf("want a node-limit refusal, got %v", err)
	}
	if len(checkFreeList(t)) != 1 {
		t.Fatal("a failed analysis did not return its manager")
	}

	held := make([]*reach.Analysis, runtime.GOMAXPROCS(0)+2)
	for i := range held {
		held[i] = analyze()
	}
	for _, h := range held {
		h.Release()
	}
	if free := checkFreeList(t); len(free) != runtime.GOMAXPROCS(0) {
		t.Fatalf("after releasing %d analyses the free list holds %d managers, want GOMAXPROCS = %d",
			len(held), len(free), runtime.GOMAXPROCS(0))
	}
}

// TestConcurrentAnalysesMatchSequential runs Table I products from several
// goroutines at once, as tablegen workers and concurrent resynd jobs do,
// each analysis on whatever manager the free list hands it. Each must end
// with the Stats, depth and reachable-set ref that a fresh manager gives
// sequentially, and the exact check on each must give the same verdict.
func TestConcurrentAnalysesMatchSequential(t *testing.T) {
	prods := []product{
		tableIProduct(t, "s208", "retime"),
		tableIProduct(t, "s386", "retime"),
		tableIProduct(t, "s298", "script"),
		tableIProduct(t, "s820", "script"),
	}
	type outcome struct {
		stats     bdd.Stats
		depth     int
		reachable bdd.Ref
		verdict   string
	}
	run := func(p product) (outcome, error) {
		a, err := p.analyze()
		if err != nil {
			return outcome{}, err
		}
		defer a.Release()
		return outcome{a.Stats, a.Depth, a.Reachable, p.verdict()}, nil
	}
	want := make([]outcome, len(prods))
	for i, p := range prods {
		reach.DropFreeManagers()
		o, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want[i] = o
	}

	const workers, rounds = 4, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(prods); k++ {
				i := (w + k) % len(prods)
				got, err := run(prods[i])
				if err != nil {
					t.Errorf("worker %d, %s: %v", w, prods[i].name, err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d, %s: got %+v, sequential fresh manager %+v", w, prods[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	checkFreeList(t)
}

// warmAnalysisBytes bounds what a product analysis of s510's retime flow
// output allocates on a manager that an earlier one of the same product
// released. It measured 25,344 bytes (node functions, relation clusters,
// permutation keys, supports), against 32.6 MB for a cold analysis
// (BenchmarkProductReachS510), nearly all of that BDD table growth.
const warmAnalysisBytes = 256 << 10

// TestWarmAnalysisAllocatesLittle checks that a reused manager keeps its
// grown tables: after one s510 retime product analysis on a fresh manager
// and its Release, a second one allocates less than warmAnalysisBytes. The
// second is the manager's first reuse, so every computed-table size must
// land in a buffer the first analysis grew.
func TestWarmAnalysisAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := tableIProduct(t, "s510", "retime")
	analyze := func() *reach.Analysis {
		t.Helper()
		a, err := p.analyze()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	reach.DropFreeManagers()
	analyze().Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := analyze()
	runtime.ReadMemStats(&after)
	a.Release()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm s510 retime product analysis: %d bytes, %d nodes", got, a.Stats.Nodes)
	if got > warmAnalysisBytes {
		t.Fatalf("warm analysis allocated %d bytes, bound %d", got, warmAnalysisBytes)
	}
}
