package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

// bufNet is a one-buffer circuit: y = a.
func bufNet(t *testing.T) *network.Network {
	t.Helper()
	n := network.New("g")
	a := n.AddPI("a")
	b := n.AddLogic("b", []*network.Node{a}, logic.MustParseCover(1, "1"))
	n.AddPO("y", b)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCheckLiveAndCancelled(t *testing.T) {
	if err := Check(context.Background(), "op"); err != nil {
		t.Fatalf("live context must pass: %v", err)
	}
	if err := Check(nil, "op"); err != nil {
		t.Fatalf("nil context must pass: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Check(ctx, "op")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("cancelled context must match ErrBudget: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("budget error must wrap the context cause: %v", err)
	}
	if !strings.Contains(err.Error(), "op") {
		t.Fatalf("budget error must name the operation: %v", err)
	}
}

func TestBudgetContexts(t *testing.T) {
	// Zero budgets are unbounded: the context passes straight through.
	ctx := context.Background()
	fc, cancel := Budget{}.FlowContext(ctx)
	cancel()
	if fc != ctx {
		t.Fatal("zero flow budget must not derive a new context")
	}
	// A tiny pass deadline expires and carries a descriptive cause.
	pc, cancel := Budget{Pass: time.Nanosecond}.PassContext(ctx)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	err := Check(pc, "slow-pass")
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired pass budget must match ErrBudget and DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "pass deadline") {
		t.Fatalf("cause must say which level expired: %v", err)
	}
	// Job sits above Flow: a zero Job budget passes through, a tiny one
	// expires with a job-level cause.
	jc, cancel := Budget{}.JobContext(ctx)
	cancel()
	if jc != ctx {
		t.Fatal("zero job budget must not derive a new context")
	}
	jc, cancel = Budget{Job: time.Nanosecond}.JobContext(ctx)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	err = Check(jc, "whole-job")
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired job budget must match ErrBudget and DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "job deadline") {
		t.Fatalf("cause must say the job level expired: %v", err)
	}
}

func TestRunContainsPanic(t *testing.T) {
	n := bufNet(t)
	err := Run(context.Background(), "explode", n, func(context.Context) error {
		panic("boom")
	})
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("panic must become *PassError, got %v", err)
	}
	if pe.Pass != "explode" || pe.Recovered != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PassError incomplete: %+v", pe)
	}
	if pe.Stats.PIs == 0 || pe.Stats.LogicNodes == 0 {
		t.Fatalf("PassError must snapshot circuit stats: %+v", pe.Stats)
	}
}

func TestRunUnwrapsRecoveredError(t *testing.T) {
	sentinel := errors.New("inner failure")
	err := Run(context.Background(), "p", nil, func(context.Context) error {
		panic(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("a panicked error value must stay matchable: %v", err)
	}
}

func TestTxCommit(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	out, rep := Tx(context.Background(), "noop", n, TxOptions{Tracer: tr},
		func(_ context.Context, work *network.Network) (*network.Network, int, error) {
			return work, 0, nil
		})
	if !rep.Committed || rep.Err != nil || rep.Note != "" {
		t.Fatalf("clean pass must commit: %+v", rep)
	}
	if out == n {
		t.Fatal("committed output must be the working clone, not the input")
	}
	if tr.Counters()["pass_committed"] != 1 || tr.Counters()["pass_rolled_back"] != 0 {
		t.Fatalf("commit counters wrong: %v", tr.Counters())
	}
}

func TestTxRollbackOnPassError(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	fail := errors.New("pass says no")
	out, rep := Tx(context.Background(), "bad", n, TxOptions{Tracer: tr},
		func(context.Context, *network.Network) (*network.Network, int, error) {
			return nil, 0, fail
		})
	if rep.Committed || out != n {
		t.Fatalf("failed pass must roll back to the input: %+v", rep)
	}
	var rb *RollbackError
	if !errors.As(rep.Err, &rb) || rb.Pass != "bad" || !errors.Is(rep.Err, fail) {
		t.Fatalf("rollback must wrap the cause: %v", rep.Err)
	}
	if rep.Note == "" {
		t.Fatal("rollback must produce a footnote")
	}
	if tr.Counters()["pass_failed"] != 1 || tr.Counters()["pass_rolled_back"] != 1 {
		t.Fatalf("rollback counters wrong: %v", tr.Counters())
	}
}

func TestTxContainsInjectedPanic(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	out, rep := Tx(context.Background(), "p", n,
		TxOptions{Tracer: tr, Fault: FaultPanic},
		func(_ context.Context, work *network.Network) (*network.Network, int, error) {
			return work, 0, nil
		})
	if rep.Committed || out != n {
		t.Fatal("injected panic must roll back")
	}
	var pe *PassError
	if !errors.As(rep.Err, &pe) || pe.Pass != "p" {
		t.Fatalf("rollback must wrap the contained panic: %v", rep.Err)
	}
	if tr.Counters()["pass_panic_contained"] != 1 {
		t.Fatalf("panic counter missing: %v", tr.Counters())
	}
}

func TestTxRollsBackCorruptOutput(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	out, rep := Tx(context.Background(), "c", n,
		TxOptions{Tracer: tr, Fault: FaultCorrupt},
		func(_ context.Context, work *network.Network) (*network.Network, int, error) {
			return work, 0, nil
		})
	if rep.Committed {
		t.Fatal("corrupted output must not commit")
	}
	if out != n || out.Check() != nil {
		t.Fatal("rollback must hand back the untouched, valid input")
	}
	if tr.Counters()["guard_check_failed"] != 1 {
		t.Fatalf("check-failure counter missing: %v", tr.Counters())
	}
	if !strings.Contains(rep.Note, "invariant violation") {
		t.Fatalf("note must name the violation: %q", rep.Note)
	}
}

func TestTxRollsBackOnInjectedDeadline(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	ran := false
	out, rep := Tx(context.Background(), "d", n,
		TxOptions{Tracer: tr, Fault: FaultDeadline},
		func(_ context.Context, work *network.Network) (*network.Network, int, error) {
			ran = true
			return work, 0, nil
		})
	if ran {
		t.Fatal("an exhausted budget must stop the pass before it runs")
	}
	if rep.Committed || out != n || !errors.Is(rep.Err, ErrBudget) {
		t.Fatalf("injected deadline must be a typed budget rollback: %+v", rep)
	}
	if tr.Counters()["pass_budget_exhausted"] != 1 {
		t.Fatalf("budget counter missing: %v", tr.Counters())
	}
}

func TestTxSmokeCheckCatchesMiscompare(t *testing.T) {
	n := bufNet(t)
	tr := obs.New()
	// The "optimization" silently inverts the output: structurally valid,
	// functionally wrong — exactly what the smoke simulation must catch.
	out, rep := Tx(context.Background(), "evil", n, TxOptions{Tracer: tr},
		func(_ context.Context, work *network.Network) (*network.Network, int, error) {
			b := work.FindNode("b")
			work.SetFunction(b, b.Fanins, logic.MustParseCover(1, "0"))
			return work, 0, nil
		})
	if rep.Committed || out != n {
		t.Fatalf("miscompare must roll back: %+v", rep)
	}
	if tr.Counters()["guard_smoke_failed"] != 1 {
		t.Fatalf("smoke counter missing: %v", tr.Counters())
	}
	if !strings.Contains(rep.Note, "smoke check failed") {
		t.Fatalf("note must name the smoke failure: %q", rep.Note)
	}
}

func TestTxRollbackEventEmitted(t *testing.T) {
	n := bufNet(t)
	var sb strings.Builder
	tr := obs.NewJSON(&sb)
	Tx(context.Background(), "bad", n, TxOptions{Tracer: tr},
		func(context.Context, *network.Network) (*network.Network, int, error) {
			return nil, 0, errors.New("nope")
		})
	if !strings.Contains(sb.String(), "guard_rollback") {
		t.Fatalf("rollback must emit a guard_rollback event, got %s", sb.String())
	}
}

func TestTxNilNetworkFromPass(t *testing.T) {
	n := bufNet(t)
	out, rep := Tx(context.Background(), "nil", n, TxOptions{},
		func(context.Context, *network.Network) (*network.Network, int, error) {
			return nil, 0, nil
		})
	if rep.Committed || out != n {
		t.Fatalf("nil output must roll back: %+v", rep)
	}
}
