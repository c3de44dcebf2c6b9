package flows

import (
	"context"
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
