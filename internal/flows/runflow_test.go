package flows

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/genlib"
)

func TestRunFlowDispatch(t *testing.T) {
	lib := genlib.Lib2()
	ctx := context.Background()
	for _, name := range FlowNames() {
		if !KnownFlow(name) {
			t.Fatalf("FlowNames reports %q but KnownFlow rejects it", name)
		}
		src := bench.BuildPaperExample()
		r, err := RunFlow(ctx, name, src, lib, Config{})
		if err != nil {
			t.Fatalf("flow %q: %v", name, err)
		}
		if r == nil || r.Net == nil {
			t.Fatalf("flow %q returned no network", name)
		}
		if _, err := VerifyVerdict(context.Background(), src, r, Config{}); err != nil {
			t.Fatalf("flow %q not equivalent: %v", name, err)
		}
	}
	if KnownFlow("bogus") {
		t.Fatal("KnownFlow must reject unknown names")
	}
	if _, err := RunFlow(ctx, "bogus", bench.BuildPaperExample(), lib, Config{}); err == nil || !strings.Contains(err.Error(), "unknown flow") {
		t.Fatalf("unknown flow must error by name, got %v", err)
	}
}

// TestCoreFlowGolden pins the served "core" flow (raw iterated Algorithm 1
// with the constrained min-area post-pass) on every registry circuit of at
// most 1,000 logic nodes: registers, unit-delay clock, literals, prefix and
// note, as recorded in testdata/core_flow.txt.
func TestCoreFlowGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/core_flow.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range append(bench.TableI(), bench.Large()...) {
		src, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if src.NumLogicNodes() > 1000 {
			continue
		}
		r, err := RunFlow(context.Background(), "core", src, genlib.Lib2(), Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Fprintf(&got, "%-7s regs=%-3d clk=%-6.2f lits=%-5.0f prefix=%-3d note=%q\n",
			c.Name, r.Regs, r.Clk, r.Area, r.PrefixK, r.Note)
	}
	if got.String() != string(want) {
		t.Errorf("core flow differs from testdata/core_flow.txt; got:\n%s", got.String())
	}
}
