package reach

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

// counter3 is a free-running 3-bit counter: all 8 states reachable.
const counter3 = `
.model cnt3
.inputs en
.outputs y
.latch d0 s0 0
.latch d1 s1 0
.latch d2 s2 0
.names s0 en d0
10 1
01 1
.names s0 en c0
11 1
.names s1 c0 d1
10 1
01 1
.names s1 c0 c1
11 1
.names s2 c1 d2
10 1
01 1
.names s2 s1 s0 y
111 1
.end
`

// NumReachable counts the reachable states by evaluating Reachable under
// every assignment of the current-state variables, so it suits only the
// few-latch machines of these tests. Exported for the reach_test package.
func (a *Analysis) NumReachable() float64 {
	var cur []int
	for _, mc := range a.Machines {
		cur = append(cur, mc.CurVar...)
	}
	env := make([]bool, a.M.NumVars())
	n := 0
	for st := 0; st < 1<<len(cur); st++ {
		for i, v := range cur {
			env[v] = st>>i&1 == 1
		}
		if a.M.Eval(a.Reachable, env) {
			n++
		}
	}
	return float64(n)
}

func TestCounterFullyReachable(t *testing.T) {
	n, err := blif.ParseString(counter3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), n, DefaultLimits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumReachable(); got != 8 {
		t.Fatalf("reachable = %v, want 8", got)
	}
	if a.Depth < 7 {
		t.Fatalf("depth = %d, expected at least 7 image steps", a.Depth)
	}
}

// oneHotRing: a 3-stage one-hot ring counter: only 3 of 8 states reachable.
func oneHotRing(t *testing.T) *network.Network {
	t.Helper()
	n := network.New("ring")
	_ = n.AddPI("tick")
	buf := logic.MustParseCover(1, "1")
	l0 := n.AddLatch("r0", nil, network.V1)
	l1 := n.AddLatch("r1", nil, network.V0)
	l2 := n.AddLatch("r2", nil, network.V0)
	b0 := n.AddLogic("b0", []*network.Node{l2.Output}, buf.Clone())
	b1 := n.AddLogic("b1", []*network.Node{l0.Output}, buf.Clone())
	b2 := n.AddLogic("b2", []*network.Node{l1.Output}, buf.Clone())
	l0.Driver = b0
	l1.Driver = b1
	l2.Driver = b2
	n.AddPO("y", l2.Output)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRingReachability(t *testing.T) {
	n := oneHotRing(t)
	a, err := Analyze(context.Background(), n, DefaultLimits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumReachable(); got != 3 {
		t.Fatalf("reachable = %v, want 3", got)
	}
}

func TestUnreachableDCRing(t *testing.T) {
	n := oneHotRing(t)
	a, err := Analyze(context.Background(), n, DefaultLimits, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Projection onto all three latches: unreachable set must contain
	// 000 and 111 and exclude the three one-hot codes.
	dc := a.UnreachableDC([]int{0, 1, 2})
	check := func(bits []bool, wantDC bool) {
		if dc.Eval(bits) != wantDC {
			t.Fatalf("state %v: dc=%v want %v", bits, dc.Eval(bits), wantDC)
		}
	}
	check([]bool{false, false, false}, true)
	check([]bool{true, true, true}, true)
	check([]bool{true, false, false}, false)
	check([]bool{false, true, false}, false)
	check([]bool{false, false, true}, false)
	check([]bool{true, true, false}, true)

	// Projection onto latches {0,1}: every partial assignment has some
	// reachable completion except (1,1): states 110/111 are unreachable.
	dc2 := a.UnreachableDC([]int{0, 1})
	if !dc2.Eval([]bool{true, true}) {
		t.Fatal("(r0,r1)=(1,1) must be a projected don't care")
	}
	if dc2.Eval([]bool{false, false}) {
		t.Fatal("(0,0) completes to reachable 001; not a don't care")
	}
}

func TestInitXUnconstrained(t *testing.T) {
	// A latch with X init contributes both values to the initial set.
	n := network.New("x")
	_ = n.AddPI("a")
	l := n.AddLatch("s", nil, network.VX)
	buf := logic.MustParseCover(1, "1")
	b := n.AddLogic("b", []*network.Node{l.Output}, buf.Clone())
	l.Driver = b
	n.AddPO("y", l.Output)
	a, err := Analyze(context.Background(), n, DefaultLimits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumReachable(); got != 2 {
		t.Fatalf("reachable = %v, want 2", got)
	}
}

func TestLimits(t *testing.T) {
	n, _ := blif.ParseString(counter3)
	if _, err := Analyze(context.Background(), n, Limits{MaxLatches: 2}, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("latch limit not enforced: %v", err)
	}
	if _, err := Analyze(context.Background(), n, Limits{MaxBDDNodes: 8}, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("node limit not enforced: %v", err)
	}
	// The wrapped errors must carry the observed numbers, not a bare string.
	_, err := Analyze(context.Background(), n, Limits{MaxLatches: 2}, nil)
	if !strings.Contains(err.Error(), "3 latches") {
		t.Fatalf("latch-limit error lacks the latch count: %v", err)
	}
	// Oversized circuits are not a dead end any more: the error must point
	// the user at the SAT-based sweeping fallback.
	if !strings.Contains(err.Error(), "-sweep") {
		t.Fatalf("latch-limit error lacks the -sweep hint: %v", err)
	}
	_, err = Analyze(context.Background(), n, Limits{MaxBDDNodes: 8}, nil)
	if !strings.Contains(err.Error(), "BDD nodes") || !strings.Contains(err.Error(), "image steps") {
		t.Fatalf("node-limit error lacks node/iteration numbers: %v", err)
	}
	// The relation stage is MaxBDDNodes/32 but never 0, which the manager
	// reads as no limit: every small limit must still refuse, before the
	// first image step, naming the stage and the limit.
	for _, limit := range []int{1, 8, 31, 32, 64} {
		_, err := Analyze(context.Background(), n, Limits{MaxBDDNodes: limit}, nil)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("MaxBDDNodes %d: %v, want ErrTooLarge", limit, err)
		}
		if !strings.Contains(err.Error(), "after 0 image steps") {
			t.Fatalf("MaxBDDNodes %d: error does not place the refusal before the first image step: %v", limit, err)
		}
		if stage := relationBudget(limit); stage != limit && !strings.Contains(err.Error(), fmt.Sprintf("relation stage %d of limit %d", stage, limit)) {
			t.Fatalf("MaxBDDNodes %d: error does not name the stage %d and the limit: %v", limit, stage, err)
		}
	}
}

func TestAnalysisStatsAndTrace(t *testing.T) {
	n, _ := blif.ParseString(counter3)
	var buf bytes.Buffer
	tr := obs.NewJSON(&buf)
	a, err := Analyze(context.Background(), n, DefaultLimits, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Nodes == 0 || a.Stats.UniqueSize == 0 || a.Stats.CacheMisses == 0 {
		t.Fatalf("BDD stats not populated: %+v", a.Stats)
	}
	sp := tr.Root().Find("reach.analyze")
	if sp == nil {
		t.Fatal("reach.analyze span missing")
	}
	if sp.Counter("reach_frontier_peak_nodes") <= 0 {
		t.Fatal("frontier peak not recorded")
	}
	if sp.Counter("reach_iterations") != int64(a.Depth) {
		t.Fatalf("span iterations %d != depth %d", sp.Counter("reach_iterations"), a.Depth)
	}
	if sp.Counter("bdd_nodes") != int64(a.Stats.PeakNodes) {
		t.Fatal("span bdd_nodes does not match manager stats")
	}
	if setup := sp.Counter("reach_setup_nodes"); setup <= 2 || setup > int64(a.Stats.Nodes) || sp.Counter("reach_stage_refused") != 0 {
		t.Fatalf("reach_setup_nodes %d (of %d nodes), reach_stage_refused %d; want the nodes before the first image step and no refusal",
			setup, a.Stats.Nodes, sp.Counter("reach_stage_refused"))
	}
	// A stage refusal says so on the span, with the node count it stopped at.
	rt := obs.New()
	if _, err := Analyze(context.Background(), n, Limits{MaxBDDNodes: 64}, rt); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("64-node analysis: %v, want ErrTooLarge", err)
	}
	if rs := rt.Root().Find("reach.analyze"); rs.Counter("reach_stage_refused") != 1 || rs.Counter("reach_setup_nodes") != 2 {
		t.Fatalf("refused span: reach_stage_refused %d, reach_setup_nodes %d; want 1 and the stage, 2",
			rs.Counter("reach_stage_refused"), rs.Counter("reach_setup_nodes"))
	}
	evs, skipped, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("tracer emitted %d malformed JSONL lines", skipped)
	}
	iters := 0
	for _, e := range evs {
		if e.Ev == "event" && e.Name == "reach_iter" {
			iters++
		}
	}
	// One event per image step plus the fixpoint check.
	if iters != a.Depth+1 {
		t.Fatalf("got %d reach_iter events, want %d", iters, a.Depth+1)
	}

	// A product opens no span and adds no counter (its time and counts
	// belong to the caller's verification span); it emits one
	// reach_product event per analysis, carrying the manager's counts and
	// the outcome, also when the node limit stops it.
	buf.Reset()
	tr = obs.NewJSON(&buf)
	b := n.Clone()
	p, err := network.Pair(n, b)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := AnalyzeProduct(context.Background(), n, b, p, 0, DefaultLimits, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeProduct(context.Background(), n, b, p, 0, Limits{MaxBDDNodes: 8}, tr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("8-node product: %v, want ErrTooLarge", err)
	}
	if len(tr.Root().Children()) != 0 || len(tr.Counters()) != 0 {
		t.Fatalf("product analysis left spans %v or counters %v", tr.Root().Children(), tr.Counters())
	}
	evs, _, err = obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	for _, e := range evs {
		if e.Ev != "event" || e.Name != "reach_product" {
			t.Fatalf("product emitted %s %q", e.Ev, e.Name)
		}
		got = append(got, e.Fields)
	}
	want := []map[string]any{
		{"bdd_nodes": float64(pa.Stats.Nodes), "bdd_cache_hits": float64(pa.Stats.CacheHits),
			"bdd_cache_misses": float64(pa.Stats.CacheMisses), "depth": float64(pa.Depth), "outcome": "fixpoint"},
		{"bdd_nodes": float64(8), "outcome": "node_limit"},
	}
	if len(got) != len(want) {
		t.Fatalf("got events %v, want two reach_product events", evs)
	}
	for i := range want {
		for k, v := range want[i] {
			if got[i][k] != v {
				t.Fatalf("reach_product event %d: %s = %v, want %v (all fields %v)", i, k, got[i][k], v, got[i])
			}
		}
	}
}
