package flows

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/blif"
	"repro/internal/seqverify"
	"repro/internal/sweep"
)

// TestVerifyVerdictProvedByInduction verifies registry circuits against
// their clones. Rows whose product machine fits the exact engine keep its
// verdict; rows past the latch limit are only spot-checked without Sweep
// and proved by K-induction with it. -short skips s5378 (~4 s).
func TestVerifyVerdictProvedByInduction(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		want    seqverify.Verdict
	}{
		{"s27", seqverify.VerdictExact},
		{"s298", seqverify.VerdictExact},
		{"s382", seqverify.VerdictInduction},
		{"s400", seqverify.VerdictInduction},
		{"s526", seqverify.VerdictInduction},
		{"s641", seqverify.VerdictInduction},
		{"s5378", seqverify.VerdictInduction},
	} {
		t.Run(tc.circuit, func(t *testing.T) {
			if tc.circuit == "s5378" && testing.Short() {
				t.Skip("large row skipped under -short")
			}
			c, ok := bench.ByName(tc.circuit)
			if !ok {
				t.Fatalf("%s not in registry", tc.circuit)
			}
			n, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			r := &Result{Net: n.Clone()}
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
