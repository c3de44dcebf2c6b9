package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
)

// RetryPolicy governs re-execution of transiently failed jobs: capped
// exponential backoff with full jitter.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (so Max=2
	// allows 3 attempts). <0 disables retries; 0 takes the default.
	Max int
	// Base is the first backoff ceiling; attempt n draws uniformly from
	// [0, min(Cap, Base*2^n)] (full jitter).
	Base time.Duration
	// Cap bounds the backoff ceiling.
	Cap time.Duration
	// Seed makes the jitter deterministic (0: seeded from the default).
	Seed int64
}

// DefaultRetryPolicy is the served default: up to 2 retries, 25ms base,
// 1s cap.
var DefaultRetryPolicy = RetryPolicy{Max: 2, Base: 25 * time.Millisecond, Cap: time.Second}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max == 0 {
		p.Max = DefaultRetryPolicy.Max
	}
	if p.Max < 0 {
		p.Max = 0
	}
	if p.Base <= 0 {
		p.Base = DefaultRetryPolicy.Base
	}
	if p.Cap <= 0 {
		p.Cap = DefaultRetryPolicy.Cap
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoff returns the sleep before retry number attempt (0-based): a
// uniform draw from [0, min(Cap, Base<<attempt)] on the server's jitter
// RNG.
func (s *Server) backoff(attempt int) time.Duration {
	p := s.cfg.Retry
	ceil := p.Base
	for i := 0; i < attempt && ceil < p.Cap; i++ {
		ceil *= 2
	}
	ceil = min(ceil, p.Cap)
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return time.Duration(s.rng.Int63n(int64(ceil) + 1))
}

// runJob executes one job on a pool worker: attempts run under the job
// deadline with panic containment; transient failures (deadline, contained
// panic, cancellation) are retried with capped backoff up to the policy
// budget, permanent ones (parse, invariant, verify mismatch) fail
// immediately. The terminal WAL record is synced *before* the job is
// published as terminal, so any state a client can observe as finished is
// also the state a crash recovers.
func (s *Server) runJob(j *Job) {
	start := time.Now()
	j.setRunning(start)
	// The running marker is advisory: the submitted record already
	// guarantees recovery, so a failed append does not fail the job.
	s.logRecord(walRecord{Type: "running", ID: j.ID, Time: start})

	var (
		res     *JobResult
		netlist string
		err     error
		attempt int
	)
	for {
		res, netlist, err = s.attempt(j, attempt)
		if err == nil {
			break
		}
		if guard.Classify(err) != guard.ErrClassTransient ||
			attempt >= s.cfg.Retry.Max ||
			s.draining.Load() || s.crashed.Load() {
			break
		}
		s.mRetries.Inc()
		j.append(obs.Event{Ev: "event", Name: "job_retry", Fields: map[string]any{
			"attempt": attempt + 1, "error": err.Error(),
		}})
		select {
		case <-time.After(s.backoff(attempt)):
		case <-s.baseCtx.Done():
			// Crash or hard stop mid-backoff: record what we have.
			attempt++
			goto settle
		}
		attempt++
	}
settle:
	dur := time.Since(start)
	s.mJobSec.Observe(dur.Seconds())
	now := time.Now()
	class := guard.Classify(err)
	rec := walRecord{ID: j.ID, Time: now, Started: start, Attempts: attempt + 1, Events: j.eventCount()}
	if err != nil {
		rec.Type, rec.Error, rec.Class = "failed", err.Error(), class.String()
		s.mFailed.Inc()
	} else {
		rec.Type, rec.Result, rec.Netlist = "done", res, netlist
		s.mDone.Inc()
	}
	durable := s.logRecord(rec) == nil && s.wal != nil
	j.finish(now, res, netlist, err, class, attempt+1, durable)
}

// eventCount reports the job's event count at terminal-record time. The
// final job_done/job_failed tracer event has already been appended by the
// attempt, so this count matches what Info reports once the job finishes —
// which is what keeps a recovered job's Info byte-identical.
func (j *Job) eventCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventsBase + len(j.events)
}

// attempt runs one execution attempt under a fresh tracer and job context,
// with service-level chaos injection (slow pass, forced panic, exhausted
// deadline) realized inside guard containment so an injected panic becomes
// a typed transient error.
func (s *Server) attempt(j *Job, attempt int) (res *JobResult, netlist string, err error) {
	tr := obs.New()
	tr.SetRegistry(s.reg)
	cancelRec := tr.SubscribeFunc(j.append)
	defer cancelRec()

	ctx, cancel := s.cfg.Budget.JobContext(s.baseCtx)
	defer cancel()

	fault := guard.FaultNone
	if s.cfg.Chaos != nil {
		if d := s.cfg.Chaos.JobDelay(j.ID); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		fault = s.cfg.Chaos.JobFault(j.ID)
		if fault == guard.FaultDeadline {
			dctx, dcancel := context.WithCancelCause(ctx)
			dcancel(guard.BudgetErr("serve.chaos", fmt.Errorf("injected job deadline: %w", context.DeadlineExceeded)))
			defer dcancel(nil)
			ctx = dctx
		}
	}

	gerr := guard.Run(ctx, "serve.job", nil, func(ctx context.Context) error {
		if fault == guard.FaultPanic {
			panic("serve: injected job panic")
		}
		r, n, e := s.execute(ctx, j, tr)
		res, netlist = r, n
		return e
	})
	if gerr != nil {
		tr.Event("job_failed", map[string]any{
			"error": gerr.Error(), "class": guard.Classify(gerr).String(), "attempt": attempt + 1,
		})
		return nil, "", gerr
	}
	tr.Event("job_done", map[string]any{"clk": res.Clk, "regs": res.Regs, "verify": res.Verify})
	return res, netlist, nil
}
