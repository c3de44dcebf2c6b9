// The acceptance suite for the robustness work: every flow in
// flows.RunAll must, under every injected fault, either complete with a
// valid verified network (degraded flows carrying a Metrics.Note footnote)
// or return a typed guard error. No raw panic may escape. Run with -race in
// CI.
package faults_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/parexec"
)

// guardedPasses are the transactional pass names consulted by the flows
// (remap appears in both derived flows, so a forced fault hits it twice).
var guardedPasses = []string{
	"algebraic.optimize",
	"mapper.map_delay",
	"retime.min_period",
	"reach.dc_extract",
	"remap",
	"core.resynthesize",
	"retime.guide",
}

// typed reports whether err carries the guard error taxonomy: a budget
// exhaustion, a contained panic, or a rollback wrapper.
func typed(err error) bool {
	var pe *guard.PassError
	var rb *guard.RollbackError
	return errors.Is(err, guard.ErrBudget) || errors.As(err, &pe) || errors.As(err, &rb)
}

// resultsFailure validates a result trio and describes the first problem,
// or returns "". It is goroutine-safe so the parallel matrix workers can
// use it and hand the verdict back to the test goroutine.
func resultsFailure(src *network.Network, rs ...*flows.Result) string {
	for i, r := range rs {
		if r == nil {
			return fmt.Sprintf("flow %d returned a nil result without an error", i)
		}
		if err := r.Net.Check(); err != nil {
			return fmt.Sprintf("flow %d returned an invalid network: %v", i, err)
		}
		if _, err := flows.VerifyVerdict(context.Background(), src, r, flows.Config{}); err != nil {
			return fmt.Sprintf("flow %d not equivalent to the source: %v", i, err)
		}
	}
	return ""
}

func checkResults(t *testing.T, src *network.Network, rs ...*flows.Result) {
	t.Helper()
	if msg := resultsFailure(src, rs...); msg != "" {
		t.Fatal(msg)
	}
}

// TestTargetedFaultMatrix injects every failure mode into every guarded
// pass, one at a time. Whatever happens inside, RunAll must finish with
// either a typed guard error or three valid, verified results; unless the
// faulted pass is the purely opportunistic guide retiming, the degradation
// must leave a visible footnote.
//
// The scenarios are independent (private source network, private injector,
// read-only library) and run concurrently on the parexec pool; each worker
// reports a failure description back to the test goroutine, which surfaces
// it under the scenario's subtest name in deterministic order.
func TestTargetedFaultMatrix(t *testing.T) {
	kinds := []guard.Fault{guard.FaultPanic, guard.FaultCorrupt, guard.FaultDeadline}
	type scenario struct {
		pass string
		kind guard.Fault
	}
	var scs []scenario
	for _, pass := range guardedPasses {
		for _, kind := range kinds {
			scs = append(scs, scenario{pass, kind})
		}
	}
	failures, err := parexec.Map(context.Background(), 0, scs,
		func(ctx context.Context, _ int, sc scenario) (string, error) {
			src := bench.BuildPaperExample()
			lib := genlib.Lib2()
			inj := faults.NewInjector(1).Force(sc.pass, sc.kind)
			sd, ret, rsyn, err := flows.RunAll(ctx, src, lib, flows.Config{Inject: inj})
			if !inj.Fired(sc.pass, sc.kind) {
				return fmt.Sprintf("fault %v on %s never fired; events: %v", sc.kind, sc.pass, inj.Events()), nil
			}
			if err != nil {
				if !typed(err) {
					return fmt.Sprintf("flow error is not a typed guard error: %v", err), nil
				}
				return "", nil
			}
			if msg := resultsFailure(src, sd, ret, rsyn); msg != "" {
				return msg, nil
			}
			if sc.pass != "retime.guide" {
				if sd.Note == "" && ret.Note == "" && rsyn.Note == "" {
					return fmt.Sprintf("no fallback note after %v on %s: sd=%v ret=%v rsyn=%v",
						sc.kind, sc.pass, sd.Metrics, ret.Metrics, rsyn.Metrics), nil
				}
			}
			return "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scs {
		failure := failures[i]
		t.Run(sc.pass+"/"+sc.kind.String(), func(t *testing.T) {
			if failure != "" {
				t.Fatal(failure)
			}
		})
	}
}

// TestTargetedFaultsOnFSM repeats the worst offenders on an embedded FSM
// benchmark (bbtas) so the harness also exercises a circuit with real state
// encoding, not just the paper's didactic example.
func TestTargetedFaultsOnFSM(t *testing.T) {
	c, ok := bench.ByName("bbtas")
	if !ok {
		t.Fatal("bbtas missing")
	}
	for _, pass := range []string{"core.resynthesize", "retime.min_period", "remap"} {
		t.Run(pass, func(t *testing.T) {
			src, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			inj := faults.NewInjector(3).Force(pass, guard.FaultPanic)
			sd, ret, rsyn, err := flows.RunAll(context.Background(), src, genlib.Lib2(), flows.Config{Inject: inj})
			if err != nil {
				if !typed(err) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			checkResults(t, src, sd, ret, rsyn)
			if ret.Note == "" && rsyn.Note == "" {
				t.Fatalf("panic in %s left no footnote", pass)
			}
		})
	}
}

// TestBDDBlowupDegradesToSweepDCs pins the resource-fault path: a blown
// BDD node budget must not fail the flow. Within the sweep rung's register
// bound (the paper example) DC extraction falls back to induction-proven
// register classes with no footnote; above it (s5378, 174 registers past
// the latch limit) it is skipped with the paper's footnote, carrying the
// observed numbers.
func TestBDDBlowupDegradesToSweepDCs(t *testing.T) {
	src := bench.BuildPaperExample()
	inj := faults.NewInjector(7).Force("reach.dc_extract", guard.FaultBDDBlowup)
	tr := obs.New()
	sd, ret, rsyn, err := flows.RunAll(context.Background(), src, genlib.Lib2(), flows.Config{Inject: inj, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if ret.Note != "" {
		t.Fatalf("blowup within the register bound must degrade to the sweep rung, got note %q", ret.Note)
	}
	if tr.Root().Find("sweep.dc_extract") == nil {
		t.Fatal("blowup within the register bound took no sweep rung")
	}
	checkResults(t, src, sd, ret, rsyn)

	c, _ := bench.ByName("s5378")
	big, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj = faults.NewInjector(7).Force("reach.dc_extract", guard.FaultBDDBlowup)
	r, err := flows.RunFlow(context.Background(), "retime", big, genlib.Lib2(), flows.Config{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	const want = "DC extraction skipped: reach: 174 latches exceed the 32-latch limit: reach: circuit exceeds implicit-enumeration limits"
	if r.Note != want {
		t.Fatalf("s5378 retime note:\n got %q\nwant %q", r.Note, want)
	}
	if err := r.Net.Check(); err != nil {
		t.Fatalf("s5378 retime output invalid: %v", err)
	}
}

// TestDeadlineFaultIsBudgetTyped pins the taxonomy: an injected deadline
// surfaces through the rollback note and, when it fails a flow, matches
// guard.ErrBudget.
func TestDeadlineFaultIsBudgetTyped(t *testing.T) {
	src := bench.BuildPaperExample()
	inj := faults.NewInjector(5).Force("mapper.map_delay", guard.FaultDeadline)
	_, _, _, err := flows.RunAll(context.Background(), src, genlib.Lib2(), flows.Config{Inject: inj})
	if err == nil {
		t.Fatal("script.delay cannot survive an unmappable pass")
	}
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("deadline fault must match guard.ErrBudget, got %v", err)
	}
	var rb *guard.RollbackError
	if !errors.As(err, &rb) || rb.Pass != "mapper.map_delay" {
		t.Fatalf("error must carry the rolled-back pass, got %v", err)
	}
}

// TestRandomFaultSweep drives randomized injections across several seeds,
// concurrently (each seed owns its injector and source network). Every
// outcome must be a typed error or a fully valid, verified trio.
func TestRandomFaultSweep(t *testing.T) {
	kinds := []guard.Fault{guard.FaultPanic, guard.FaultCorrupt, guard.FaultDeadline, guard.FaultBDDBlowup}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	failures, err := parexec.Map(context.Background(), 0, seeds,
		func(ctx context.Context, _ int, seed int64) (string, error) {
			src := bench.BuildPaperExample()
			inj := faults.NewInjector(seed).WithRate(0.35, kinds...)
			sd, ret, rsyn, err := flows.RunAll(ctx, src, genlib.Lib2(), flows.Config{Inject: inj})
			if err != nil {
				if !typed(err) {
					return fmt.Sprintf("seed %d: untyped error: %v", seed, err), nil
				}
				return "", nil
			}
			if msg := resultsFailure(src, sd, ret, rsyn); msg != "" {
				return fmt.Sprintf("seed %d: %s", seed, msg), nil
			}
			return "", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		if f != "" {
			t.Error(f)
		}
	}
}

// TestInjectionDeterminism pins replayability: the same seed must produce
// the same decision log and the same flow outcomes.
func TestInjectionDeterminism(t *testing.T) {
	kinds := []guard.Fault{guard.FaultPanic, guard.FaultCorrupt, guard.FaultDeadline}
	run := func() ([]faults.Event, []string) {
		src := bench.BuildPaperExample()
		inj := faults.NewInjector(11).WithRate(0.5, kinds...)
		sd, ret, rsyn, err := flows.RunAll(context.Background(), src, genlib.Lib2(), flows.Config{Inject: inj})
		outcomes := []string{}
		if err != nil {
			outcomes = append(outcomes, "err: "+err.Error())
		} else {
			for _, r := range []*flows.Result{sd, ret, rsyn} {
				outcomes = append(outcomes, r.Metrics.String())
			}
		}
		return inj.Events(), outcomes
	}
	ev1, out1 := run()
	ev2, out2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event logs diverge:\n%v\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("outcomes diverge:\n%v\n%v", out1, out2)
	}
}

// TestForceOverridesRate pins injector semantics: a forced pass ignores the
// random rate, everything else still draws from it.
func TestForceOverridesRate(t *testing.T) {
	inj := faults.NewInjector(2).WithRate(1.0, guard.FaultPanic).Force("safe", guard.FaultNone)
	if k := inj.Fault("safe"); k != guard.FaultNone {
		t.Fatalf("forced FaultNone overridden: %v", k)
	}
	if k := inj.Fault("other"); k != guard.FaultPanic {
		t.Fatalf("rate 1.0 must inject, got %v", k)
	}
	if len(inj.Events()) != 2 {
		t.Fatalf("every consultation must be logged: %v", inj.Events())
	}
}
