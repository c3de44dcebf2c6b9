package flows

import (
	"context"
	"testing"

	"repro/internal/network"
	"repro/internal/reach"
)

// TestBDDCountsPinned pins BDD-kernel outcomes that Table I rests on: the
// node count, fixpoint depth and computed-table hits and misses of one
// exact product, the node count and depth of the s510 retime product,
// which the implementation-first product order takes to its fixpoint
// (TestVerifyVerdictS510Exact checks its outputs), and the exact
// point where the 2,000,000-node limit trips in two DC extractions, whose
// single-network order the product order leaves alone. Refs are handed
// out in creation order and which nodes get created does not depend on
// the computed table, so a change to the kernel's table layout must leave
// every figure here unchanged; a change that moves them moves the limit
// trips and can flip a Table I row.
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
		{"s1238", "DC extraction skipped: reach: state space too large: 2000000 BDD nodes for 20 latches after 2 image steps (limit 2000000): reach: circuit exceeds implicit-enumeration limits"},
		{"s1196", "DC extraction skipped: reach: state space too large: 2000000 BDD nodes for 22 latches after 3 image steps (limit 2000000): reach: circuit exceeds implicit-enumeration limits"},
	} {
		if _, r := flowOutput(t, c.circuit, "retime"); r.Metrics.Note != c.note {
			t.Errorf("%s retime note:\n got %q\nwant %q", c.circuit, r.Metrics.Note, c.note)
		}
	}
}
