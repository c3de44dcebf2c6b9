package flows

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/reach"
)

// TestBDDCountsPinned pins BDD-kernel outcomes that Table I rests on: the
// node count, fixpoint depth and computed-table hits and misses of one
// exact product, the node count and depth of the s510 retime product,
// which the implementation-first product order takes to its fixpoint
// (TestVerifyVerdictS510Exact checks its outputs), and the three DC
// extractions that the staged node budget refuses before their first image
// step (their relations need 168,698 to 320,169 nodes against a stage of
// 62,500), whose single-network order the product order leaves alone.
// Refs are handed out in creation order and which nodes get created does
// not depend on the computed table, so a change to the kernel's table
// layout must leave every figure here unchanged; a change that moves them
// moves the limit trips and can flip a Table I row.
func TestBDDCountsPinned(t *testing.T) {
	ctx := context.Background()

	src, sd := flowOutput(t, "s420", "script")
	p, err := network.Pair(src, sd.Net)
	if err != nil {
		t.Fatal(err)
	}
	a, err := reach.AnalyzeProduct(ctx, src, sd.Net, p, 0, reach.DefaultLimits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Nodes != 177490 || a.Depth != 4 || a.Stats.CacheHits != 115711 || a.Stats.CacheMisses != 442395 {
		t.Errorf("s420 script product: %d nodes, depth %d, %d hits, %d misses; want 177490, 4, 115711, 442395",
			a.Stats.Nodes, a.Depth, a.Stats.CacheHits, a.Stats.CacheMisses)
	}

	src, ret := flowOutput(t, "s510", "retime")
	if p, err = network.Pair(src, ret.Net); err != nil {
		t.Fatal(err)
	}
	if a, err = reach.AnalyzeProduct(ctx, src, ret.Net, p, ret.PrefixK, reach.DefaultLimits, nil); err != nil {
		t.Fatalf("s510 retime product: %v", err)
	}
	if a.Stats.Nodes != 300878 || a.Depth != 4 {
		t.Errorf("s510 retime product: %d nodes, depth %d; want 300878, 4", a.Stats.Nodes, a.Depth)
	}

	for _, c := range []struct{ circuit, note string }{
		{"s1238", "DC extraction skipped: reach: state space too large: 62500 BDD nodes for 20 latches after 0 image steps (relation stage 62500 of limit 2000000): reach: circuit exceeds implicit-enumeration limits"},
		{"s1196", "DC extraction skipped: reach: state space too large: 62500 BDD nodes for 22 latches after 0 image steps (relation stage 62500 of limit 2000000): reach: circuit exceeds implicit-enumeration limits"},
	} {
		if _, r := flowOutput(t, c.circuit, "retime"); r.Metrics.Note != c.note {
			t.Errorf("%s retime note:\n got %q\nwant %q", c.circuit, r.Metrics.Note, c.note)
		}
	}

	// s641's note is the retiming footnote, which hides its DC extraction;
	// the trace says why that was skipped: the reach.analyze span's
	// refusal counters and the reach.dc_extract rollback reason.
	src, _ = flowOutput(t, "s641", "")
	var buf bytes.Buffer
	tr := obs.NewJSON(&buf)
	r, err := RunFlow(ctx, "retime", src, genlib.Lib2(), Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Metrics.Note, "retiming failed: ") {
		t.Errorf("s641 retime note %q, want the retiming footnote", r.Metrics.Note)
	}
	sp := tr.Root().Find("reach.analyze")
	if sp == nil {
		t.Fatal("s641 retime flow opened no reach.analyze span")
	}
	if sp.Counter("reach_stage_refused") != 1 || sp.Counter("reach_setup_nodes") != 62500 {
		t.Errorf("s641 reach.analyze: reach_stage_refused %d, reach_setup_nodes %d; want 1, 62500",
			sp.Counter("reach_stage_refused"), sp.Counter("reach_setup_nodes"))
	}
	evs, _, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = "reach: state space too large: 62500 BDD nodes for 19 latches after 0 image steps (relation stage 62500 of limit 2000000): reach: circuit exceeds implicit-enumeration limits"
	got := ""
	for _, e := range evs {
		if e.Ev == "event" && e.Name == "guard_rollback" && e.Fields["pass"] == "reach.dc_extract" {
			got, _ = e.Fields["reason"].(string)
		}
	}
	if got != want {
		t.Errorf("s641 DC-extraction rollback reason:\n got %q\nwant %q", got, want)
	}
}
