package serve

import (
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

func (s JobState) terminal() bool { return s == StateDone || s == StateFailed }

// Job is one unit of submitted work, content-addressed by the request hash
// so identical submissions share a single Job. Its event log is appended by
// a loss-free obs.SubscribeFunc recorder on the job's private tracer and
// replayed to any number of SSE consumers: a consumer reads from an index,
// so late subscribers see the full history and slow ones never force drops.
type Job struct {
	// ID is the content hash of the request (netlist + format + flow +
	// verify), so it doubles as the cache key.
	ID string

	mu       sync.Mutex
	req      Request
	state    JobState
	events   []obs.Event
	notify   chan struct{} // closed and replaced on every append/state change
	created  time.Time
	started  time.Time
	finished time.Time
	result   *JobResult
	errMsg   string
	class    string // guard.ErrClass of the failure ("transient"|"permanent")
	attempts int    // execution attempts consumed (retries + 1)
	netlist  string // output BLIF, set on success

	// accepted is closed once the creating submission is past enqueue (its
	// record durable, or the map-only equivalent); until then the job may
	// still be rolled back, so concurrent submissions of the same key must
	// not ack it. acceptErr carries the enqueue failure when it was.
	// Written before the close, read after the wait — the channel orders it.
	accepted  chan struct{}
	acceptErr error

	// eventsBase preserves the event count of a recovered job whose
	// per-event history was not persisted; Info reports base + live.
	eventsBase int
	// durable is set once the job's terminal WAL record is known synced:
	// a durable terminal job survives a crash byte-identically.
	durable bool
	// touched is the last submission or lookup, driving LRU eviction.
	touched time.Time
}

// JobResult is the Table-I-style summary of a finished job.
type JobResult struct {
	Regs    int     `json:"regs"`
	Clk     float64 `json:"clk"`
	Area    float64 `json:"area"`
	PrefixK int     `json:"prefix_k"`
	Note    string  `json:"note,omitempty"`
	// Verify reports how flows.VerifyVerdict established equivalence:
	// "exact", "proved-by-induction" (sweep on, state space past the exact
	// limits), "simulated" (flows.VerdictSpotChecked: neither proof engine
	// could decide, so a bounded random simulation vouches for the result),
	// or "skipped".
	Verify string `json:"verify"`
}

// JobInfo is the JSON shape served for a job.
type JobInfo struct {
	ID       string     `json:"id"`
	Flow     string     `json:"flow"`
	Format   string     `json:"format"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started"`
	Finished time.Time  `json:"finished"`
	Events   int        `json:"events"`
	Result   *JobResult `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	// ErrorClass reports the retry class of a failed job ("transient" |
	// "permanent"): transient failures are retried and never cached.
	ErrorClass string `json:"error_class,omitempty"`
	// Attempts counts execution attempts a terminal job consumed.
	Attempts int `json:"attempts,omitempty"`
	// Cached is set on POST responses that were answered by an existing
	// job rather than a fresh run.
	Cached bool `json:"cached,omitempty"`
}

func newJob(id string, req Request, now time.Time) *Job {
	return &Job{
		ID:       id,
		req:      req,
		state:    StateQueued,
		notify:   make(chan struct{}),
		accepted: make(chan struct{}),
		created:  now,
		touched:  now,
	}
}

// accept marks the creating submission as past enqueue: the job is durable
// (or map-only) and safe for concurrent submissions to coalesce on.
func (j *Job) accept() { close(j.accepted) }

// reject records that the creating submission was rolled back (queue full,
// WAL append failure) and releases any coalescing waiters with the error.
func (j *Job) reject(err error) {
	j.acceptErr = err
	close(j.accepted)
}

// waitAccepted blocks until accept or reject, returning the reject error.
func (j *Job) waitAccepted() error {
	<-j.accepted
	return j.acceptErr
}

// newRecoveredJob rebuilds a job from its persisted state. Queued and
// running jobs come back queued (the caller re-enqueues them); terminal
// jobs come back complete and durable, so the result cache survives the
// restart.
func newRecoveredJob(sj snapJob, now time.Time) *Job {
	// A recovered job's submission was durable by definition, so it is born
	// accepted.
	accepted := make(chan struct{})
	close(accepted)
	j := &Job{
		ID:         sj.ID,
		req:        sj.Req,
		state:      sj.State,
		notify:     make(chan struct{}),
		accepted:   accepted,
		created:    sj.Created,
		started:    sj.Started,
		finished:   sj.Finished,
		result:     sj.Result,
		errMsg:     sj.Error,
		class:      sj.Class,
		attempts:   sj.Attempts,
		netlist:    sj.Netlist,
		eventsBase: sj.Events,
		touched:    now,
	}
	if !j.state.terminal() {
		j.state = StateQueued
		j.started = time.Time{}
		j.finished = time.Time{}
	} else {
		j.durable = true
	}
	return j
}

// wake must be called with j.mu held: it releases every waiter and arms a
// fresh notify channel.
func (j *Job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// append records one tracer event. It is installed via obs.SubscribeFunc,
// so it runs synchronously under the tracer's lock and never misses or
// drops an event.
func (j *Job) append(e obs.Event) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.wake()
	j.mu.Unlock()
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.wake()
	j.mu.Unlock()
}

// finish lands the job in a terminal state. class and attempts describe a
// failure's retry classification and how many attempts were consumed;
// durable records whether the terminal WAL record was synced.
func (j *Job) finish(now time.Time, res *JobResult, netlist string, err error, class guard.ErrClass, attempts int, durable bool) {
	j.mu.Lock()
	j.finished = now
	j.attempts = attempts
	j.durable = durable
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.class = class.String()
	} else {
		j.state = StateDone
		j.result = res
		j.netlist = netlist
	}
	j.wake()
	j.mu.Unlock()
}

// resetForRequeue returns a transiently failed job to the queued state for
// a fresh run (resubmission after a deadline blip, or crash recovery of an
// interrupted run). The original creation time is kept — it is the same
// submission — but results, errors, attempts and the event log start over.
func (j *Job) resetForRequeue(now time.Time) {
	j.mu.Lock()
	j.state = StateQueued
	j.started = time.Time{}
	j.finished = time.Time{}
	j.result = nil
	j.errMsg = ""
	j.class = ""
	j.attempts = 0
	j.netlist = ""
	j.events = nil
	j.eventsBase = 0
	j.durable = false
	j.touched = now
	j.wake()
	j.mu.Unlock()
}

// EventsSince returns the events at index from onward, the job state, and a
// channel that is closed on the next append or state change. The channel is
// captured under the same lock as the slice, so a waiter can never miss a
// wakeup: if anything happened after this snapshot, the returned channel is
// already closed.
func (j *Job) EventsSince(from int) (evs []obs.Event, state JobState, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.state, j.notify
}

// Info snapshots the job for JSON rendering.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{
		ID:         j.ID,
		Flow:       j.req.Flow,
		Format:     j.req.Format,
		State:      j.state,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
		Events:     j.eventsBase + len(j.events),
		Result:     j.result,
		Error:      j.errMsg,
		ErrorClass: j.class,
		Attempts:   j.attempts,
	}
}

// State reports the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// stateClass reports the state together with the failure class (empty
// unless failed).
func (j *Job) stateClass() (JobState, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.class
}

// Durable reports whether the job's terminal record is known synced in the
// WAL: a durable terminal job survives a crash byte-identically (the chaos
// harness keys its strongest assertion on this).
func (j *Job) Durable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable
}

// touch refreshes the LRU clock; callers hold the server map lock, not
// j.mu, so it takes the job lock itself.
func (j *Job) touch(now time.Time) {
	j.mu.Lock()
	j.touched = now
	j.mu.Unlock()
}

// lruKey returns (terminal, touched, finished) for eviction decisions.
func (j *Job) lruKey() (terminal bool, touched, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal(), j.touched, j.finished
}

// Netlist returns the output BLIF once the job is done ("" otherwise).
func (j *Job) Netlist() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.netlist
}
