package flows

import (
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
// 62,500), whose single-network order the product order leaves alone,
// with what the sweep rung merges in their place.
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

	// The staged node budget refuses three DC extractions before their
	// first image step, and the retime flow takes the sweep rung instead.
	// The reach.analyze span pins each refusal, the sweep.dc_extract span
	// the registers it merged. s641's note is the retiming footnote; the
	// other two carry none.
	for _, c := range []struct {
		circuit    string
		retimeFail bool
		merged     int64
	}{
		{"s641", true, 3},
		{"s1196", false, 1},
		{"s1238", false, 0},
	} {
		src, _ = flowOutput(t, c.circuit, "")
		tr := obs.New()
		r, err := RunFlow(ctx, "retime", src, genlib.Lib2(), Config{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.HasPrefix(r.Metrics.Note, "retiming failed: "); got != c.retimeFail || (!got && r.Metrics.Note != "") {
			t.Errorf("%s retime note %q, want the retiming footnote: %v", c.circuit, r.Metrics.Note, c.retimeFail)
		}
		sp := tr.Root().Find("reach.analyze")
		if sp == nil {
			t.Fatalf("%s retime flow opened no reach.analyze span", c.circuit)
		}
		if sp.Counter("reach_stage_refused") != 1 || sp.Counter("reach_setup_nodes") != 62500 {
			t.Errorf("%s reach.analyze: reach_stage_refused %d, reach_setup_nodes %d; want 1, 62500",
				c.circuit, sp.Counter("reach_stage_refused"), sp.Counter("reach_setup_nodes"))
		}
		sw := tr.Root().Find("sweep.dc_extract")
		if sw == nil {
			t.Fatalf("%s retime flow took no sweep rung", c.circuit)
		}
		if got := sw.Counter("sweep_regs_merged"); got != c.merged {
			t.Errorf("%s sweep DC extraction merged %d registers, want %d", c.circuit, got, c.merged)
		}
	}
}
