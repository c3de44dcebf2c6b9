package guard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/obs"
)

// The post-pass smoke check's budget: a short random simulation against
// the pass input after the pass's delayed-replacement prefix, cheap enough
// to run after every pass. An unknown power-up state reaching a PO is no
// mismatch.
const (
	smokeCycles = 64
	smokeSeed   = 1
)

// TxOptions configures the transactional pass runner.
type TxOptions struct {
	// Tracer receives a "guard.<pass>" span with commit/rollback counters
	// and a "guard_rollback" event on every rollback (nil: no tracing).
	Tracer *obs.Tracer
	// Budget supplies the per-pass deadline (Budget.Pass; the flow-level
	// deadline is expected to already be on the incoming context).
	Budget Budget
	// Fault is the fault to inject into this pass invocation (FaultNone,
	// the zero value: none). Callers holding a stateful Injector consult it
	// once per invocation and pass the decision here.
	Fault Fault
}

// TxReport describes the outcome of one transactional pass.
type TxReport struct {
	// Pass is the guarded pass name.
	Pass string
	// Committed is true when the pass output was validated and adopted.
	Committed bool
	// Note is a human-readable fallback note suitable for Metrics.Note
	// (mirroring the paper's Table I footnotes); empty on commit.
	Note string
	// Err is the typed failure that forced the rollback: always a
	// *RollbackError wrapping the cause (nil on commit).
	Err error
}

// PassFunc transforms a private working copy of the input network. It may
// mutate work in place and return it, or return a freshly built network.
// The returned int is the delayed-replacement prefix the transformation
// introduced (0 for behaviour-preserving passes), used by the smoke check.
type PassFunc func(ctx context.Context, work *network.Network) (*network.Network, int, error)

// Tx executes one pass transactionally: it snapshots the input (the pass
// only ever sees a clone), runs fn under the per-pass budget with panic
// containment, validates the output with network.Check plus a short
// random-simulation smoke check against the input, and either commits the
// new network or rolls back to the untouched input with a Table-I-style
// fallback note. Tx never panics and never returns an invalid network: on
// any failure the returned network is `in` itself.
func Tx(ctx context.Context, pass string, in *network.Network, opt TxOptions, fn PassFunc) (*network.Network, TxReport) {
	tr := opt.Tracer
	sp := tr.Begin("guard." + pass)
	defer sp.End()

	rollback := func(counter, reason string, cause error) (*network.Network, TxReport) {
		sp.Add(counter, 1)
		sp.Add("pass_rolled_back", 1)
		tr.Event("guard_rollback", map[string]any{
			"pass": pass, "kind": counter, "reason": reason,
		})
		return in, TxReport{
			Pass: pass,
			Note: pass + ": " + reason,
			Err:  &RollbackError{Pass: pass, Cause: cause},
		}
	}

	pctx, cancel := opt.Budget.PassContext(ctx)
	defer cancel()
	if opt.Fault == FaultDeadline {
		// Hand the pass an already-exhausted context: the pre-check below
		// (and any in-pass cancellation point) sees the injected cause.
		dctx, dcancel := context.WithCancelCause(pctx)
		dcancel(fmt.Errorf("guard: injected deadline exhaustion in %s", pass))
		defer dcancel(nil)
		pctx = dctx
	}
	if err := Check(pctx, pass); err != nil {
		sp.Add("pass_deadline_exceeded", 1)
		return rollback("pass_budget_exhausted", "budget exhausted", err)
	}

	var out *network.Network
	var prefix int
	err := Run(pctx, pass, in, func(ctx context.Context) error {
		work := in.Clone()
		if opt.Fault == FaultPanic {
			panic(fmt.Sprintf("guard: injected panic in %s", pass))
		}
		o, k, ferr := fn(ctx, work)
		if ferr != nil {
			return ferr
		}
		if o == nil {
			return fmt.Errorf("guard: pass %s returned a nil network", pass)
		}
		out, prefix = o, k
		return nil
	})
	if err != nil {
		var pe *PassError
		switch {
		case errors.As(err, &pe):
			return rollback("pass_panic_contained", fmt.Sprintf("panic contained (%v)", pe.Recovered), err)
		case errors.Is(err, ErrBudget):
			return rollback("pass_budget_exhausted", "budget exhausted", err)
		default:
			return rollback("pass_failed", err.Error(), err)
		}
	}

	if opt.Fault == FaultCorrupt {
		corruptNetwork(out)
	}
	if cerr := out.Check(); cerr != nil {
		return rollback("guard_check_failed", "invariant violation: "+cerr.Error(), cerr)
	}
	serr := bitsim.RandomEquivalent(in, out, prefix, smokeCycles, smokeSeed, bitsim.Options{Tracer: opt.Tracer})
	if serr != nil {
		return rollback("guard_smoke_failed", "smoke check failed: "+serr.Error(), serr)
	}
	sp.Add("pass_committed", 1)
	return out, TxReport{Pass: pass, Committed: true}
}

// corruptNetwork realizes FaultCorrupt: it breaks a structural invariant of
// the pass output (function arity vs fanin count, fanin/fanout symmetry) in
// a deterministic way, so the transactional validation must catch it.
func corruptNetwork(n *network.Network) {
	for _, v := range n.Nodes() {
		if v.Kind == network.KindLogic && len(v.Fanins) > 0 {
			v.Fanins = v.Fanins[:len(v.Fanins)-1]
			return
		}
	}
}
