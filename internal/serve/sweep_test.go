package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// sweepTwinsBLIF is a 34-register circuit carrying the same shift register
// twice — beyond the 32-latch exact-verification wall, but every twin pair
// is 1-inductive (the same circuit flows' sweep tests use).
func sweepTwinsBLIF() string {
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
	return b.String()
}

// TestServeSweepVerification drives the sweep knobs end to end: the flags
// participate in the content address and validation, a >32-latch job
// verifies as proved-by-induction instead of degrading to simulation, and
// the solver counters cross the tracer bridge onto /metrics. It also pins
// the three verdicts of flows.VerifyVerdict on the wire: "exact" for a
// small circuit, "proved-by-induction" with sweep past the exact limits,
// and "simulated" (flows.VerdictSpotChecked) without.
func TestServeSweepVerification(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	src := sweepTwinsBLIF()

	plain := Request{Netlist: src, Flow: "retime", Verify: true}
	swept := Request{Netlist: src, Flow: "retime", Verify: true, Sweep: true}
	if plain.normalized().Key() == swept.normalized().Key() {
		t.Fatal("sweep must participate in the job content hash")
	}
	deep := Request{Netlist: src, Flow: "retime", Verify: true, Sweep: true, InductionK: 2}
	if deep.normalized().Key() == swept.normalized().Key() {
		t.Fatal("induction_k must participate in the job content hash")
	}
	bad := Request{Netlist: src, Flow: "retime", Sweep: true, InductionK: 99}
	if _, status := postJob(t, ts.URL, bad); status != http.StatusBadRequest {
		t.Fatalf("induction_k out of range status = %d, want 400", status)
	}

	info, status := postJob(t, ts.URL, swept)
	if status != http.StatusAccepted {
		t.Fatalf("submission status = %d, want 202", status)
	}
	final := waitDone(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("sweep job failed: %+v", final)
	}
	if final.Result == nil || final.Result.Verify != "proved-by-induction" {
		t.Fatalf("verify = %+v, want proved-by-induction", final.Result)
	}

	// Without sweep the same circuit can only be spot-checked.
	info, _ = postJob(t, ts.URL, plain)
	final = waitDone(t, ts.URL, info.ID)
	if final.State != StateDone || final.Result.Verify != "simulated" {
		t.Fatalf("plain job verify = %+v, want simulated", final.Result)
	}

	// Within the exact limits the product machine is enumerated.
	info, _ = postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, "s27"), Flow: "script", Verify: true})
	final = waitDone(t, ts.URL, info.ID)
	if final.State != StateDone || final.Result.Verify != "exact" {
		t.Fatalf("s27 job verify = %+v, want exact", final.Result)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`resyn_counter_total{counter="sweep_classes_proved"}`,
		`resyn_counter_total{counter="sweep_cex_refinements"}`,
		`resyn_counter_total{counter="sat_conflicts"}`,
		`resyn_counter_total{counter="sat_learned_clauses"}`,
		`resyn_counter_total{counter="sat_calls"}`,
		`resyn_counter_total{counter="sweep_structural"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
