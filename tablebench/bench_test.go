package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/obs"
)

func TestReadReference(t *testing.T) {
	const table = `TABLE I — header
Circuit  |   Reg     Clk    Area |   Reg     Clk    Area note     |   Reg     Clk    Area note
-----------------------------------------------------------------------
ex2      |     5    6.80     488 |     5    6.80     486          |     5    6.80     486 not resy
s208     |     7   17.60     411 |     7   16.85     547 retiming |     7   16.80     685
s9999    | skipped (large)
`
	ref, err := readReference(strings.NewReader(table))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 {
		t.Fatalf("rows = %v", ref)
	}
	if got := ref["s208"]["retime"]; got != "7 16.85 547" {
		t.Errorf("s208 retime = %q", got)
	}
	if got := ref["ex2"]["resyn"]; got != quality(5, 6.8, 486) {
		t.Errorf("ex2 resyn = %q", got)
	}
}

// TestReferenceCoversTableIWorkload checks that the committed Table I has a
// row for every circuit the tablei-sop workload checks against it.
func TestReferenceCoversTableIWorkload(t *testing.T) {
	f, err := os.Open("../" + referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := readReference(f)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("tablei-sop")
	for _, c := range w.circuits {
		if len(ref[c]) != len(tableFlows) {
			t.Errorf("table_output.txt has no full row for %s", c)
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric and workload tables of the
// program and of BENCHMARK.json identical, in order.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, got []struct{ Name, Unit string }) {
		if len(specs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(specs), len(got))
		}
		for i, s := range specs {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", kind, i, s.name, s.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndSpecs, doc.EndToEnd)
	check("per_layer", perLayerSpecs, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, doc.Workloads[i].Name)
		}
	}
}

// small is a fast workload over both substrates' code paths: the SOP flows
// with exact verification, and the AIG substrate with sweep on.
func small(cfg flows.Config) workload {
	return workload{name: "small", circuits: []string{"s27", "bbtas", "s208"}, flows: tableFlows, cfg: cfg}
}

// TestTracedMatchesUntraced checks that tracing changes no quality number
// or verdict, and that both metric sets come out complete.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, cfg := range []flows.Config{
		{Substrate: flows.SubstrateSOP},
		{Substrate: flows.SubstrateAIG, Sweep: true},
	} {
		w := small(cfg)
		s, err := prepare(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		both := runPass(w, s, nil, nil, tr)
		untraced, traced := both[0], both[1]
		if len(traced) != len(w.circuits)*len(w.flows) {
			t.Fatalf("%d cells", len(traced))
		}
		for i := range traced {
			if traced[i].failed() {
				t.Errorf("%s failed: %s", traced[i].outcome(), traced[i].fault)
			}
			if traced[i].outcome() != untraced[i].outcome() {
				t.Errorf("traced %s, untraced %s", traced[i].outcome(), untraced[i].outcome())
			}
		}
		if _, err := withUnits(endToEndSpecs, endToEnd(s, [][]cell{untraced})); err != nil {
			t.Error(err)
		}
		m := perLayer(s, untraced, traced, tr)
		if _, err := withUnits(perLayerSpecs, m); err != nil {
			t.Error(err)
		}
		if m["mapper.calls"] == 0 || m["guard.committed"] == 0 {
			t.Errorf("%s: no mapper or guard activity traced: %v", cfg.Substrate, m)
		}
	}
}

// TestExpiredDeadlineFailsCell checks that a call past its deadline is a
// failed cell carrying the budget cause, not a silently degraded result.
func TestExpiredDeadlineFailsCell(t *testing.T) {
	s, err := prepare(small(flows.Config{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := runCell(s.sources[0], "script", s.lib, flows.Config{}, time.Nanosecond, 1, 1)
	if !c.failed() || !strings.Contains(c.fault, "budget") {
		t.Fatalf("cell %s: fault %q, want a budget failure", c.outcome(), c.fault)
	}
}

// TestVerifyRepetitions checks that a cell verified several times keeps
// one verdict and reports a wall from its repetitions.
func TestVerifyRepetitions(t *testing.T) {
	s, err := prepare(small(flows.Config{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	once := runCell(s.sources[0], "script", s.lib, flows.Config{}, time.Minute, 1, 2)
	thrice := runCell(s.sources[0], "script", s.lib, flows.Config{}, time.Minute, 3, 2)
	if once.failed() || thrice.failed() {
		t.Fatalf("faults %q, %q", once.fault, thrice.fault)
	}
	if once.outcome() != thrice.outcome() || thrice.verifyS <= 0 {
		t.Errorf("once %s, thrice %s in %gs", once.outcome(), thrice.outcome(), thrice.verifyS)
	}
	// Probes before the flow and before each verification.
	if len(once.probeS) != 4 || len(thrice.probeS) != 8 {
		t.Errorf("probes: %d and %d, want 4 and 8", len(once.probeS), len(thrice.probeS))
	}
	for _, w := range workloads {
		if n := w.probesPerCall(); n < 1 || n > probesPerPass {
			t.Errorf("%s: %d probes per call", w.name, n)
		}
	}
}

// TestProbeTableIsOneCycle checks that the probe's loads visit every entry
// of its table before they repeat, so no probe runs in a short loop.
func TestProbeTableIsOneCycle(t *testing.T) {
	i, n := uint32(0), 0
	for {
		i = probeTable[i]
		n++
		if i == 0 {
			break
		}
	}
	if n != len(probeTable) {
		t.Fatalf("cycle of %d entries, table of %d", n, len(probeTable))
	}
}
