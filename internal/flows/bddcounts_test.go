package flows

import (
	"context"
	"testing"

	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/seqverify"
)

// TestBDDCountsPinned pins BDD-kernel outcomes that Table I rests on: the
// node count, fixpoint depth and computed-table hits and misses of one
// exact product, and the exact point where the 2,000,000-node limit trips
// in one verification and two DC extractions. Refs are handed out in
// creation order and which nodes get created does not depend on the
// computed table, so a change to the kernel's table layout must leave
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
	if a.Stats.Nodes != 184822 || a.Depth != 4 || a.Stats.CacheHits != 104465 || a.Stats.CacheMisses != 458868 {
		t.Errorf("s420 script product: %d nodes, depth %d, %d hits, %d misses; want 184822, 4, 104465, 458868",
			a.Stats.Nodes, a.Depth, a.Stats.CacheHits, a.Stats.CacheMisses)
	}

	src, ret := flowOutput(t, "s510", "retime")
	err = seqverify.Equivalent(ctx, src, ret.Net, seqverify.Options{Delay: ret.PrefixK}, nil)
	const s510 = "seqverify: reach: state space too large: 2000000 BDD nodes for 22 latches after 3 image steps (limit 2000000): reach: circuit exceeds implicit-enumeration limits"
	if err == nil || err.Error() != s510 {
		t.Errorf("s510 retime product:\n got %v\nwant %s", err, s510)
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
