package flows

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/seqverify"
)

// buildSweepTwins builds a 34-register circuit carrying the same shift
// register twice: stage 0 of each copy toggles on x, stage i shifts
// stage i-1, and the output ANDs the two final stages. Exact reachability
// is out of reach (>32 latches) but every pair (qi, ri) is 1-inductive,
// so the sweep path must find and merge the twins.
func buildSweepTwins(t *testing.T) *network.Network {
	t.Helper()
	var b strings.Builder
	b.WriteString(".model sweeptwins\n.inputs x\n.outputs o\n")
	const stages = 17
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&b, ".latch dq%d q%d 0\n.latch dr%d r%d 0\n", i, i, i, i)
	}
	b.WriteString(".names x q0 dq0\n10 1\n01 1\n.names x r0 dr0\n10 1\n01 1\n")
	for i := 1; i < stages; i++ {
		fmt.Fprintf(&b, ".names q%d dq%d\n1 1\n", i-1, i)
		fmt.Fprintf(&b, ".names r%d dr%d\n1 1\n", i-1, i)
	}
	fmt.Fprintf(&b, ".names q%d r%d o\n11 1\n", stages-1, stages-1)
	b.WriteString(".end\n")
	n, err := blif.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRetimeCombOptSweepDCExtraction drives the beyond-the-wall DC path:
// with cfg.Sweep, a rolled-over reach.ErrTooLarge falls back to induction-
// proven register classes, merges the twin registers, and the result is
// proved equivalent by induction (not merely spot-checked).
func TestRetimeCombOptSweepDCExtraction(t *testing.T) {
	src := buildSweepTwins(t)
	lib := genlib.Lib2()
	ctx := context.Background()
	sd, err := ScriptDelay(ctx, src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sweep: true}
	ret, err := RetimeCombOpt(ctx, sd.Net, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Regs >= 34 {
		t.Errorf("sweep DC extraction merged no registers: still %d", ret.Regs)
	}
	v, err := VerifyVerdict(ctx, src, ret, cfg)
	if err != nil {
		t.Fatalf("not equivalent: %v", err)
	}
	if v != string(seqverify.VerdictInduction) {
		t.Errorf("verdict = %q, want %q", v, seqverify.VerdictInduction)
	}
	// Without Sweep the same pair is beyond both engines: the verdict must
	// honestly degrade to the spot check.
	v, err = VerifyVerdict(ctx, src, ret, Config{})
	if err != nil {
		t.Fatalf("spot check failed: %v", err)
	}
	if v != VerdictSpotChecked {
		t.Errorf("verdict = %q, want %q", v, VerdictSpotChecked)
	}
}
