package flows

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
)

func runAll(t *testing.T, n *network.Network) (sd, ret, rsyn *Result) {
	t.Helper()
	lib := genlib.Lib2()
	sd, ret, rsyn, err := RunAll(context.Background(), n, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sd, ret, rsyn
}

func TestFlowsOnPaperExample(t *testing.T) {
	src := bench.BuildPaperExample()
	sd, ret, rsyn := runAll(t, src)
	// In mapped (lib2) gate delay both derived flows must improve
	// on plain script.delay. The exact 3 → 2 → 1 unit-delay story of
	// Section III is asserted in internal/core (the mapped margin depends
	// on library phase coverage: v·s'·a' needs input inverters in lib2,
	// the same gap the 1999 library had).
	if !(ret.Clk < sd.Clk) {
		t.Fatalf("retiming clk %.2f must beat script clk %.2f", ret.Clk, sd.Clk)
	}
	if !(rsyn.Clk < sd.Clk) {
		t.Fatalf("resynthesis clk %.2f must beat script clk %.2f", rsyn.Clk, sd.Clk)
	}
	// All three verified against the source.
	for i, r := range []*Result{sd, ret, rsyn} {
		if _, err := VerifyVerdict(context.Background(), src, r, Config{}); err != nil {
			t.Fatalf("flow %d not equivalent: %v", i, err)
		}
	}
}

func TestFlowsOnEmbeddedFSM(t *testing.T) {
	c, ok := bench.ByName("bbtas")
	if !ok {
		t.Fatal("bbtas missing")
	}
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sd, ret, rsyn := runAll(t, src)
	for i, r := range []*Result{sd, ret, rsyn} {
		if r.Regs == 0 || r.Clk <= 0 || r.Area <= 0 {
			t.Fatalf("flow %d metrics degenerate: %v", i, r.Metrics)
		}
		if _, err := VerifyVerdict(context.Background(), src, r, Config{}); err != nil {
			t.Fatalf("flow %d not equivalent: %v", i, err)
		}
	}
}

func TestFlowsOnS27(t *testing.T) {
	c, _ := bench.ByName("s27")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sd, ret, rsyn := runAll(t, src)
	for i, r := range []*Result{sd, ret, rsyn} {
		if _, err := VerifyVerdict(context.Background(), src, r, Config{}); err != nil {
			t.Fatalf("flow %d not equivalent: %v", i, err)
		}
	}
	_ = sd
	_ = ret
}

func TestResynthesisDeclinesOnPipeline(t *testing.T) {
	src := bench.BuildPipelineExample()
	lib := genlib.Lib2()
	sd, err := ScriptDelay(context.Background(), src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rsyn, err := Resynthesis(context.Background(), sd.Net, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rsyn.Note == "" {
		t.Fatalf("pipeline must carry a non-applicability note, got %v", rsyn.Metrics)
	}
	if _, err := VerifyVerdict(context.Background(), src, rsyn, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestScriptDelayImprovesOrMatchesNaiveMapping(t *testing.T) {
	c, _ := bench.ByName("bbara")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sd, err := ScriptDelay(context.Background(), src, genlib.Lib2(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Clk <= 0 {
		t.Fatal("degenerate clk")
	}
	if _, err := VerifyVerdict(context.Background(), src, sd, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowsOnSyntheticISCASProfile(t *testing.T) {
	c, _ := bench.ByName("s386")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	sd, ret, rsyn := runAll(t, src)
	for i, r := range []*Result{sd, ret, rsyn} {
		if _, err := VerifyVerdict(context.Background(), src, r, Config{}); err != nil {
			t.Fatalf("flow %d not equivalent: %v", i, err)
		}
	}
}

// TestMappedDelayPeriodConsistency: core times a mapped circuit in the
// same library delay as measure(), with no delay choice left to the
// caller, so its PeriodBefore on ScriptDelay's output is exactly the
// table's Clk.
func TestMappedDelayPeriodConsistency(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"bbtas", "s27", "s208"} {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		src, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		sd, err := ScriptDelay(ctx, src, genlib.Lib2(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Resynthesize(ctx, sd.Net, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeriodBefore != sd.Clk {
			t.Fatalf("%s: core PeriodBefore %v != table Clk %v", name, res.PeriodBefore, sd.Clk)
		}
	}
}

// TestResynthesisCountersConsistent asserts the emitted transformation
// counters agree with the returned result: on an applied, non-reverted
// resynthesis the atomic stem-split count equals the delayed-replacement
// prefix, and the span tree carries the expected hierarchy.
func TestResynthesisCountersConsistent(t *testing.T) {
	src := bench.BuildPaperExample()
	lib := genlib.Lib2()
	var buf bytes.Buffer
	tr := obs.NewJSON(&buf)
	sd, err := ScriptDelay(context.Background(), src, lib, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	rsyn, err := Resynthesis(context.Background(), sd.Net, lib, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if rsyn.Note != "" {
		t.Fatalf("paper example must resynthesize cleanly, got note %q", rsyn.Note)
	}
	cs := tr.Counters()
	if cs["flow_reverted"] != 0 {
		t.Fatalf("unexpected revert: %v", cs)
	}
	if rsyn.PrefixK == 0 {
		t.Fatal("paper example must split stems")
	}
	if cs["stems_split"] != int64(rsyn.PrefixK) {
		t.Fatalf("stems_split counter %d != PrefixK %d", cs["stems_split"], rsyn.PrefixK)
	}
	if cs["dcret_pairs"] != int64(rsyn.PrefixK) {
		t.Fatalf("dcret_pairs counter %d != PrefixK %d", cs["dcret_pairs"], rsyn.PrefixK)
	}
	if cs["cones_simplified"] == 0 {
		t.Fatal("DCret simplification must fire on the paper example")
	}
	if cs["mapper_candidates"] == 0 || cs["remap_candidates"] == 0 {
		t.Fatalf("mapper counters missing: %v", cs)
	}
	// Span hierarchy: flow → core pass → step.
	root := tr.Root()
	if root.Find("flow.resynthesis") == nil || root.Find("core.resynthesize") == nil ||
		root.Find("stem_retime") == nil || root.Find("dcret_simplify") == nil {
		t.Fatal("expected flow/pass/step spans missing from the tree")
	}
	// The JSON-lines stream must parse and contain matching start/end pairs.
	evs, skipped, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("tracer emitted %d malformed JSONL lines", skipped)
	}
	starts, ends := 0, 0
	for _, e := range evs {
		switch e.Ev {
		case "span_start":
			starts++
		case "span_end":
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Fatalf("unbalanced span events: %d starts, %d ends", starts, ends)
	}
}

// TestGuardRevertRecorded pins that every guardAgainstHarm revert is
// recorded as a flow_reverted counter and a note.
func TestGuardRevertRecorded(t *testing.T) {
	c, _ := bench.ByName("bbtas")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib := genlib.Lib2()
	sd, err := ScriptDelay(context.Background(), src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	sp := tr.Begin("flow.test")
	note := ""
	worse := Metrics{Regs: sd.Regs, Clk: sd.Clk + 100, Area: sd.Area}
	m, met := guardAgainstHarm(sd.Net, lib, sd.Net.Clone(), worse, &note, sp)
	sp.End()
	if met.Clk != sd.Clk {
		t.Fatalf("guard must return the input metrics, got clk %v", met.Clk)
	}
	if m == sd.Net {
		t.Fatal("guard must return a clone, not the input itself")
	}
	if note == "" {
		t.Fatal("revert must set a note")
	}
	if sp.Counter("flow_reverted") != 1 {
		t.Fatal("revert must record flow_reverted on the span")
	}
	// And the keep path must NOT record a revert.
	tr2 := obs.New()
	sp2 := tr2.Begin("flow.test")
	note2 := ""
	better := Metrics{Regs: sd.Regs, Clk: sd.Clk - 0.5, Area: sd.Area}
	keep := sd.Net.Clone()
	m2, _ := guardAgainstHarm(sd.Net, lib, keep, better, &note2, sp2)
	sp2.End()
	if m2 != keep || note2 != "" || sp2.Counter("flow_reverted") != 0 {
		t.Fatal("keep path must not record a revert")
	}
}

// TestRunAllTracedEmitsPerFlowSpans asserts the three flows appear as
// separate top-level spans with wall time and that counters land under
// the right flow.
func TestRunAllTracedEmitsPerFlowSpans(t *testing.T) {
	c, _ := bench.ByName("bbtas")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	if _, _, _, err := RunAll(context.Background(), src, genlib.Lib2(), Config{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range tr.Root().Children() {
		names = append(names, s.Name)
		if s.Dur() <= 0 {
			t.Fatalf("span %s has no wall time", s.Name)
		}
	}
	want := []string{"flow.script_delay", "flow.retime_combopt", "flow.resynthesis"}
	if len(names) != len(want) {
		t.Fatalf("top-level spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("top-level spans = %v, want %v", names, want)
		}
	}
	if tr.Root().Find("retime.min_period") == nil {
		t.Fatal("retiming span missing from the tree")
	}
}

// TestBestRemapHonoursCancelledContext pins that the remap runs under its
// context on both substrates: with the budget already spent it returns the
// typed guard error instead of mapping unbounded or reporting "no
// mappable candidate".
func TestBestRemapHonoursCancelledContext(t *testing.T) {
	c, _ := bench.ByName("s27")
	src, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib := genlib.Lib2()
	sd, err := ScriptDelay(context.Background(), src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sub := range []string{SubstrateSOP, SubstrateAIG} {
		m, _, err := bestRemap(ctx, sd.Net, lib, Config{Substrate: sub})
		if !errors.Is(err, guard.ErrBudget) {
			t.Fatalf("%s: bestRemap under a cancelled context: err = %v, want guard.ErrBudget", sub, err)
		}
		if m != nil {
			t.Fatalf("%s: bestRemap under a cancelled context returned a network", sub)
		}
	}
}
