package flows

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/seqverify"
)

// buildSweepTwins builds a 2*stages-register circuit carrying the same
// shift register twice: stage 0 of each copy toggles on x, stage i shifts
// stage i-1, and the output ANDs the two final stages. From 17 stages on,
// exact reachability is out of reach (>32 latches) but every pair
// (qi, ri) is 1-inductive, so the sweep rung must find and merge the
// twins.
func buildSweepTwins(t *testing.T, stages int) *network.Network {
	t.Helper()
	var b strings.Builder
	b.WriteString(".model sweeptwins\n.inputs x\n.outputs o\n")
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

// TestRetimeCombOptSweepDCExtraction drives the beyond-the-wall DC rung:
// with the zero Config, a reach.ErrTooLarge on a circuit within
// maxSweepDCRegs registers falls back to induction-proven register
// classes and merges the twin registers. The result is proved equivalent
// by induction with Sweep (not merely spot-checked) and spot-checked
// without it.
func TestRetimeCombOptSweepDCExtraction(t *testing.T) {
	src := buildSweepTwins(t, 17)
	lib := genlib.Lib2()
	ctx := context.Background()
	sd, err := ScriptDelay(ctx, src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := RetimeCombOpt(ctx, sd.Net, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ret.Regs >= 34 {
		t.Errorf("sweep DC extraction merged no registers: still %d", ret.Regs)
	}
	v, err := VerifyVerdict(ctx, src, ret, Config{Sweep: true})
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

// TestRetimeCombOptSkipsDCsAboveBound: past the reach limits and above
// maxSweepDCRegs registers, DC extraction takes the skip rung. No sweep
// runs, no twin is merged, and the footnote carries the reach refusal.
func TestRetimeCombOptSkipsDCsAboveBound(t *testing.T) {
	stages := maxSweepDCRegs/2 + 1
	src := buildSweepTwins(t, stages)
	lib := genlib.Lib2()
	ctx := context.Background()
	sd, err := ScriptDelay(ctx, src, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	ret, err := RetimeCombOpt(ctx, sd.Net, lib, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("DC extraction skipped: reach: %d latches exceed the 32-latch limit: reach: circuit exceeds implicit-enumeration limits", 2*stages)
	if ret.Note != want {
		t.Errorf("note:\n got %q\nwant %q", ret.Note, want)
	}
	if ret.Regs != 2*stages {
		t.Errorf("%d registers, want all %d kept", ret.Regs, 2*stages)
	}
	if tr.Root().Find("sweep.dc_extract") != nil {
		t.Error("sweep DC extraction ran above the register bound")
	}
}

// TestRetimeFlowIndependentOfSweep: the flows read Config.Sweep only in
// VerifyVerdict, so the retime flow's netlist and metrics, note included,
// are the same with it on and off, on every Table I circuit and both
// substrates. The subtests run in parallel, and -short skips the two
// slowest rows: planet's SOP retime flow takes 4-6 s per run (its remap's
// eliminate), s5378's 1-2 s.
func TestRetimeFlowIndependentOfSweep(t *testing.T) {
	ctx := context.Background()
	lib := genlib.Lib2()
	for _, sub := range SubstrateNames() {
		for _, c := range bench.TableI() {
			t.Run(sub+"/"+c.Name, func(t *testing.T) {
				t.Parallel()
				if testing.Short() && (c.Name == "planet" || c.Name == "s5378") {
					t.Skip("slowest rows skipped under -short")
				}
				src, err := c.Build()
				if err != nil {
					t.Fatal(err)
				}
				var out [2]bytes.Buffer
				var met [2]Metrics
				for i, sweepOn := range []bool{false, true} {
					r, err := RunFlow(ctx, "retime", src, lib, Config{Substrate: sub, Sweep: sweepOn})
					if err != nil {
						t.Fatal(err)
					}
					if err := blif.Write(&out[i], r.Net); err != nil {
						t.Fatal(err)
					}
					met[i] = r.Metrics
				}
				if met[0] != met[1] {
					t.Errorf("metrics: %v without Sweep, %v with", met[0], met[1])
				}
				if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
					t.Error("netlist differs with Sweep")
				}
			})
		}
	}
}
