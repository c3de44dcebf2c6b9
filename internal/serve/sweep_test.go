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

// TestServeSweepVerification drives the sweep flag end to end: it
// participates in the content address, a >32-latch job verifies as
// proved-by-induction instead of degrading to simulation, and the solver
// counters cross the tracer bridge onto /metrics. It also pins the three
// verdicts of flows.VerifyVerdict on the wire: "exact" for a small
// circuit, "proved-by-induction" with sweep past the exact limits, and
// "simulated" (flows.VerdictSpotChecked) without. The induction depth is
// the engine's: an "induction_k" field left over from older clients is
// ignored and addresses the same job.
func TestServeSweepVerification(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	src := sweepTwinsBLIF()

	plain := Request{Netlist: src, Flow: "retime", Verify: true}
	swept := Request{Netlist: src, Flow: "retime", Verify: true, Sweep: true}
	if plain.normalized().Key() == swept.normalized().Key() {
		t.Fatal("sweep must participate in the job content hash")
	}

	// A body from an older client that still carries induction_k is
	// accepted as a fresh job and addresses the same job as one without.
	info, status := postLegacy(t, ts.URL, swept, `"induction_k":2`)
	if status != http.StatusAccepted {
		t.Fatalf("body with induction_k: status %d, want 202", status)
	}
	if again, _ := postJob(t, ts.URL, swept); again.ID != info.ID {
		t.Fatalf("body without induction_k: id %q, want %q", again.ID, info.ID)
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
	metrics, err := readAll(resp)
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
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServeReplaysInductionKRecord boots on a log written before the
// induction depth left the wire format: its submitted record carries
// "induction_k" and an id hashed with it. Replay keeps the stored id and
// runs the job to the same proof.
func TestServeReplaysInductionKRecord(t *testing.T) {
	dir := t.TempDir()
	id := writeSubmittedRecord(t, dir, "blif\x00retime\x00sop\x00true\x000\x00true\x002\x00", sweepTwinsBLIF(),
		`"format":"blif","flow":"retime","substrate":"sop","verify":true,"sweep":true,"induction_k":2`)

	s, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rs := s.Recovery(); rs.Requeued != 1 {
		t.Fatalf("recovery stats: %+v, want one requeued job", rs)
	}
	final := waitTerminal(t, s, id)
	if final.State != StateDone || final.Result == nil || final.Result.Verify != "proved-by-induction" {
		t.Fatalf("replayed job: %+v, want done and proved-by-induction", final)
	}
}
