package table

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// smallSuite keeps the determinism matrix fast enough for -race CI runs
// while still covering FSM and ISCAS-profile circuits.
var smallSuite = []string{"ex2", "ex6", "bbtas", "s27"}

// TestParallelTableIsByteIdentical is the determinism regression the
// ISSUE requires: the full tablegen matrix at -workers=1 and -workers=N
// must produce identical table bytes and identical Table-I metrics.
func TestParallelTableIsByteIdentical(t *testing.T) {
	run := func(workers int) (string, string, Summary) {
		var out, errs bytes.Buffer
		sum, err := Run(context.Background(), &out, &errs, Options{
			Circuits: smallSuite,
			Verify:   true,
			Workers:  workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.String(), errs.String(), sum
	}
	seqOut, seqErrs, seqSum := run(1)
	if seqErrs != "" {
		t.Fatalf("sequential run produced diagnostics:\n%s", seqErrs)
	}
	for _, c := range smallSuite {
		if !strings.Contains(seqOut, c) {
			t.Fatalf("row for %s missing:\n%s", c, seqOut)
		}
	}
	for _, w := range []int{2, 4, 8} {
		parOut, parErrs, parSum := run(w)
		if parOut != seqOut {
			t.Errorf("workers=%d table differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", w, seqOut, parOut)
		}
		if parErrs != seqErrs {
			t.Errorf("workers=%d diagnostics differ: %q vs %q", w, parErrs, seqErrs)
		}
		if parSum != seqSum {
			t.Errorf("workers=%d summary differs: %+v vs %+v", w, parSum, seqSum)
		}
	}
}

// TestTracerMergeOrderIndependentOfWorkers checks the per-worker tracers
// land in suite order with the same span tree shape at any width.
func TestTracerMergeOrderIndependentOfWorkers(t *testing.T) {
	shape := func(workers int) []string {
		tr := obs.New()
		var out, errs bytes.Buffer
		if _, err := Run(context.Background(), &out, &errs, Options{
			Circuits: smallSuite,
			Workers:  workers,
			Tracer:   tr,
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var names []string
		for _, s := range tr.Root().Children() {
			names = append(names, s.Name)
		}
		return names
	}
	seq := shape(1)
	if len(seq) != len(smallSuite) {
		t.Fatalf("expected %d top-level circuit spans, got %v", len(smallSuite), seq)
	}
	for i, c := range smallSuite {
		if seq[i] != c {
			t.Fatalf("span order %v does not match suite %v", seq, smallSuite)
		}
	}
	par := shape(4)
	if strings.Join(par, ",") != strings.Join(seq, ",") {
		t.Fatalf("parallel span order %v differs from sequential %v", par, seq)
	}
}

// TestJSONStreamParsesAtAnyWidth checks the concatenated per-circuit JSONL
// streams stay a valid -stats-json document under parallelism.
func TestJSONStreamParsesAtAnyWidth(t *testing.T) {
	for _, w := range []int{1, 4} {
		var out, errs, js bytes.Buffer
		if _, err := Run(context.Background(), &out, &errs, Options{
			Circuits: smallSuite[:2],
			Workers:  w,
			JSON:     &js,
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		evs, skipped, err := obs.ReadEvents(&js)
		if err != nil {
			t.Fatalf("workers=%d: JSONL stream unreadable: %v", w, err)
		}
		if skipped != 0 {
			t.Fatalf("workers=%d: %d malformed JSONL lines", w, skipped)
		}
		if len(evs) == 0 {
			t.Fatalf("workers=%d: empty event stream", w)
		}
		// The first event of each circuit block is its span_start; blocks
		// must appear in suite order.
		var circuits []string
		for _, e := range evs {
			if e.Ev == "span_start" && !strings.Contains(e.Span, "/") {
				circuits = append(circuits, e.Span)
			}
		}
		if len(circuits) != 2 || circuits[0] != smallSuite[0] || circuits[1] != smallSuite[1] {
			t.Fatalf("workers=%d: circuit blocks out of order: %v", w, circuits)
		}
	}
}

// TestUnknownCircuitFailsFast pins the pre-flight name validation.
func TestUnknownCircuitFailsFast(t *testing.T) {
	var out, errs bytes.Buffer
	_, err := Run(context.Background(), &out, &errs, Options{Circuits: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
		t.Fatalf("err = %v", err)
	}
}
