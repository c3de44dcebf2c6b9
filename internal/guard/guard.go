// Package guard is the resilience layer around pass execution: wall-clock
// budgets threaded as context deadlines, panic containment at pass
// boundaries, and transactional pass execution with rollback to the last
// known-good network (tx.go).
//
// The paper's flows chain fragile passes — implicit state enumeration can
// blow up, retiming can fail to realize initial states, and the structural
// layers panic on invariant violations. VirtualSync+ motivates bounding
// optimization effort under a timing budget, and the network-flow retiming
// literature degrades to weaker formulations when the full problem is
// infeasible; this package gives every pass in the pipeline the same
// discipline. All guard events are reported through internal/obs so that
// degradations are visible in -trace and -stats-json output.
//
// Error taxonomy:
//
//   - ErrBudget      — a wall-clock or cancellation budget was exhausted.
//     Matched with errors.Is; the concrete error wraps the context cause.
//   - *PassError     — a pass panicked; carries the pass name, the circuit
//     stats at entry, the recovered value and the stack.
//   - *RollbackError — a transactional pass was rolled back; wraps the
//     containing failure (a *PassError, a budget error, a network.Check
//     violation, or a smoke-simulation mismatch).
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/network"
)

// ErrBudget is the sentinel for exhausted execution budgets (per-pass or
// per-flow deadlines, cancelled contexts, injected deadline faults). Match
// with errors.Is; returned errors wrap both this sentinel and the cause.
var ErrBudget = errors.New("guard: budget exhausted")

// budgetError wraps ErrBudget together with the concrete cause, so both
// errors.Is(err, guard.ErrBudget) and errors.Is(err, context.DeadlineExceeded)
// hold.
type budgetError struct {
	op    string
	cause error
}

func (e *budgetError) Error() string {
	return fmt.Sprintf("guard: %s: budget exhausted: %v", e.op, e.cause)
}

func (e *budgetError) Unwrap() []error { return []error{ErrBudget, e.cause} }

// BudgetErr builds a typed budget error for operation op wrapping cause.
func BudgetErr(op string, cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &budgetError{op: op, cause: cause}
}

// Check returns nil while ctx is live, and a typed budget error (wrapping
// ErrBudget and the context cause) once it is cancelled or past its
// deadline. Long-running kernels — BDD fixpoint iterations, retiming binary
// search, the mapper DP — call it at their loop heads.
func Check(ctx context.Context, op string) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return BudgetErr(op, context.Cause(ctx))
	default:
		return nil
	}
}

// PassError reports a panic contained at a pass boundary.
type PassError struct {
	// Pass names the guarded pass ("mapper.map_delay", …).
	Pass string
	// Stats snapshots the input circuit at pass entry.
	Stats network.Stats
	// Recovered is the value recovered from the panic.
	Recovered any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PassError) Error() string {
	return fmt.Sprintf("guard: pass %s panicked on circuit [%v]: %v", e.Pass, e.Stats, e.Recovered)
}

// Unwrap exposes a recovered error value to errors.Is/As chains.
func (e *PassError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// RollbackError reports that a transactional pass was rolled back to its
// input network. It wraps the containing failure.
type RollbackError struct {
	Pass  string
	Cause error
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("guard: pass %s rolled back: %v", e.Pass, e.Cause)
}

func (e *RollbackError) Unwrap() error { return e.Cause }

// Budget bounds job, flow, and pass execution in wall-clock time. Zero
// fields mean "unbounded".
type Budget struct {
	// Job bounds one whole unit of submitted work — for the serving layer
	// (internal/serve) a job chains flows plus verification, so Job sits
	// above Flow the way Flow sits above Pass.
	Job time.Duration
	// Flow bounds one whole flow (script.delay, retime+comb.opt, …).
	Flow time.Duration
	// Pass bounds each individual pass inside a flow.
	Pass time.Duration
}

// JobContext derives the job-level deadline context. The cancel func must
// always be called.
func (b Budget) JobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return withBudget(ctx, "job", b.Job)
}

// FlowContext derives the flow-level deadline context. The cancel func must
// always be called.
func (b Budget) FlowContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return withBudget(ctx, "flow", b.Flow)
}

// PassContext derives the pass-level deadline context. The cancel func must
// always be called.
func (b Budget) PassContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return withBudget(ctx, "pass", b.Pass)
}

func withBudget(ctx context.Context, level string, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d,
		fmt.Errorf("guard: %s deadline (%v) exceeded: %w", level, d, context.DeadlineExceeded))
}

// Fault enumerates the injectable failure modes understood by the guard
// layer (the deterministic harness in internal/faults selects among them).
type Fault int

const (
	// FaultNone leaves the pass untouched.
	FaultNone Fault = iota
	// FaultPanic makes the pass panic mid-flight.
	FaultPanic
	// FaultCorrupt corrupts the pass output before validation, so the
	// transactional runner's network.Check must catch it and roll back.
	FaultCorrupt
	// FaultDeadline hands the pass an already-exhausted context.
	FaultDeadline
	// FaultBDDBlowup shrinks the BDD node budget of implicit state
	// enumeration to a few nodes; applied by the call sites that configure
	// reach.Limits (the guard runner itself ignores it).
	FaultBDDBlowup
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultCorrupt:
		return "corrupt"
	case FaultDeadline:
		return "deadline"
	case FaultBDDBlowup:
		return "bdd_blowup"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Injector decides, per guarded pass invocation, whether to inject a fault.
// Implementations must be safe for use from a single flow goroutine and
// deterministic for reproducible failure scenarios (see internal/faults).
type Injector interface {
	Fault(pass string) Fault
}

// Run executes fn under ctx with panic containment: a budget exhausted
// before fn starts returns a typed budget error, and a panic inside fn is
// converted into a *PassError carrying the pass name, the circuit stats of
// n at entry, the recovered value, and the stack — instead of killing the
// process.
func Run(ctx context.Context, pass string, n *network.Network, fn func(ctx context.Context) error) (err error) {
	if cerr := Check(ctx, pass); cerr != nil {
		return cerr
	}
	var stats network.Stats
	if n != nil {
		stats = n.Stat()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PassError{Pass: pass, Stats: stats, Recovered: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}
