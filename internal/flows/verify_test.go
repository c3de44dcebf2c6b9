package flows

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/blif"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/seqverify"
	"repro/internal/sweep"
)

// TestVerifyVerdictProvedByInduction verifies registry circuits against
// their clones or, for rows naming a flow, against that flow's output.
// Rows whose product machine fits the exact engine keep its verdict; rows
// past the latch limit are only spot-checked without Sweep and proved by
// induction with it. The s382 and s400 retime outputs need induction
// depths 4 and 2. -short skips s5378 (~4 s).
func TestVerifyVerdictProvedByInduction(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		flow    string // "" verifies a clone
		want    seqverify.Verdict
	}{
		{"s27", "", seqverify.VerdictExact},
		{"s298", "", seqverify.VerdictExact},
		{"s382", "", seqverify.VerdictInduction},
		{"s400", "", seqverify.VerdictInduction},
		{"s526", "", seqverify.VerdictInduction},
		{"s641", "", seqverify.VerdictInduction},
		{"s5378", "", seqverify.VerdictInduction},
		{"s382", "retime", seqverify.VerdictInduction},
		{"s400", "retime", seqverify.VerdictInduction},
	} {
		t.Run(strings.TrimSpace(tc.circuit+" "+tc.flow), func(t *testing.T) {
			if tc.circuit == "s5378" && testing.Short() {
				t.Skip("large row skipped under -short")
			}
			n, r := flowOutput(t, tc.circuit, tc.flow)
			if tc.want == seqverify.VerdictInduction {
				v, err := VerifyVerdict(context.Background(), n, r, Config{})
				if err != nil || v != VerdictSpotChecked {
					t.Fatalf("without Sweep: verdict %q, err %v; want %q", v, err, VerdictSpotChecked)
				}
			}
			v, err := VerifyVerdict(context.Background(), n, r, Config{Sweep: true})
			if err != nil {
				t.Fatalf("with Sweep: %v", err)
			}
			if v != string(tc.want) {
				t.Fatalf("verdict = %q, want %q", v, tc.want)
			}
		})
	}
}

// flowOutput builds a registry circuit and the result to verify against
// it: a clone when flow is "", else the output of that flow on lib2.
func flowOutput(t *testing.T, circuit, flow string) (*network.Network, *Result) {
	t.Helper()
	c, ok := bench.ByName(circuit)
	if !ok {
		t.Fatalf("%s not in registry", circuit)
	}
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if flow == "" {
		return n, &Result{Net: n.Clone()}
	}
	r, err := RunFlow(context.Background(), flow, n, genlib.Lib2(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return n, r
}

// TestVerifyVerdictFlippedInitNotProved: the s400 retime output with its
// first register's initial value flipped differs from the source at cycle
// 1. Deepening the induction must not turn that into a proof; both
// ladders refute it.
func TestVerifyVerdictFlippedInitNotProved(t *testing.T) {
	n, r := flowOutput(t, "s400", "retime")
	l := r.Net.Latches[0]
	if l.Init != network.V0 && l.Init != network.V1 {
		t.Fatalf("latch %s has no defined initial value", l.Name)
	}
	if l.Init == network.V0 {
		l.Init = network.V1
	} else {
		l.Init = network.V0
	}
	for _, cfg := range []Config{{}, {Sweep: true}} {
		v, err := VerifyVerdict(context.Background(), n, r, cfg)
		if v == string(seqverify.VerdictInduction) || err == nil {
			t.Errorf("Sweep %v: verdict %q, err %v; want a refutation", cfg.Sweep, v, err)
		}
	}
}

const cnt2 = `
.model cnt2
.inputs en
.outputs carry
.latch d0 s0 0
.latch d1 s1 0
.names s0 en d0
10 1
01 1
.names s0 en t0
11 1
.names s1 t0 d1
10 1
01 1
.names s1 s0 carry
11 1
.end
`

// TestVerifyVerdictExact: small machines keep the exact engine and its
// verdict, with Sweep on.
func TestVerifyVerdictExact(t *testing.T) {
	n, err := blif.ParseString(cnt2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerifyVerdict(context.Background(), n, &Result{Net: n.Clone()}, Config{Sweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if v != string(seqverify.VerdictExact) {
		t.Fatalf("verdict = %q, want %q", v, seqverify.VerdictExact)
	}
}

// pairA and pairB share the PI name y. Paired by name, y meets y and the
// leftover x meets z, so o = y in a and o = z in b read different inputs.
// Pairing z by its position instead drives both PIs of b from y, and the
// pair looks equivalent.
const pairA = `
.model pa
.inputs x y
.outputs o
.latch n q 0
.names y q n
1- 1
-1 1
.names y o
1 1
.end
`

const pairB = `
.model pb
.inputs y z
.outputs o
.latch n q 0
.names y q n
1- 1
-1 1
.names z o
1 1
.end
`

// TestPairingRefutedByEveryEngine: every equivalence engine pairs ports
// with network.Pair, so each refutes the pair above, and so does the
// ladder with Sweep off and on.
func TestPairingRefutedByEveryEngine(t *testing.T) {
	a, err := blif.ParseString(pairA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := blif.ParseString(pairB)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := seqverify.Equivalent(ctx, a, b, seqverify.Options{}); err == nil {
		t.Error("seqverify.Equivalent proved the pair")
	}
	if _, err := sweep.ProveEquivalent(ctx, a, b, 0, sweep.Options{}); err == nil {
		t.Error("sweep.ProveEquivalent proved the pair")
	}
	if err := bitsim.RandomEquivalent(a, b, 0, 100, 1, bitsim.Options{}); err == nil {
		t.Error("bitsim.RandomEquivalent passed the pair")
	}
	for _, cfg := range []Config{{}, {Sweep: true}} {
		if v, err := VerifyVerdict(ctx, a, &Result{Net: b}, cfg); err == nil {
			t.Errorf("VerifyVerdict (Sweep %v) returned %q without error", cfg.Sweep, v)
		}
	}
}

// shiftRegister returns the BLIF of a → q0 … q33 → o, a 34-stage shift
// register whose last stage powers up unknown (init 2), with o the
// complement of q33 when invert is set. Two copies are 68 registers, past
// the exact engine's latch limit, so the ladder ends in the spot check.
func shiftRegister(invert bool) string {
	var sb strings.Builder
	sb.WriteString(".model shift\n.inputs a\n.outputs o\n.latch a q0 0\n")
	for i := 1; i < 34; i++ {
		init := 0
		if i == 33 {
			init = 2
		}
		fmt.Fprintf(&sb, ".latch q%d q%d %d\n", i-1, i, init)
	}
	out := "1 1"
	if invert {
		out = "0 1"
	}
	fmt.Fprintf(&sb, ".names q33 o\n%s\n.end\n", out)
	return sb.String()
}

// TestVerifyVerdictXInitPastBDDWall: an unknown power-up state reaching a
// PO is no mismatch in the spot check, and it does not panic; a defined
// difference on the same machines is still refuted.
func TestVerifyVerdictXInitPastBDDWall(t *testing.T) {
	src, err := blif.ParseString(shiftRegister(false))
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerifyVerdict(context.Background(), src, &Result{Net: src.Clone()}, Config{})
	if err != nil || v != VerdictSpotChecked {
		t.Fatalf("clone: verdict %q, err %v; want %q, nil", v, err, VerdictSpotChecked)
	}
	inv, err := blif.ParseString(shiftRegister(true))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := VerifyVerdict(context.Background(), src, &Result{Net: inv}, Config{}); err == nil ||
		!strings.Contains(err.Error(), "differs") {
		t.Fatalf("inverted output: verdict %q, err %v; want a refutation", v, err)
	}
}
