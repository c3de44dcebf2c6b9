// Package serve turns the resynthesis flows into a long-running service:
// POST a netlist and a flow name, get back a content-addressed job id, and
// follow per-pass progress live over SSE while the job runs on a bounded
// worker pool. Identical submissions (same netlist bytes, format, flow,
// substrate, verify and sweep setting) hash to the same job, so repeats
// are answered from the result cache without recomputation.
//
// The package is the glue between the existing layers, not a new engine:
// jobs execute flows.RunFlow under guard.Budget deadlines on a
// parexec.Pool, trace through a private obs.Tracer bridged into the shared
// obs.Registry, and verify through flows.VerifyVerdict (falling back to
// random simulation when the product machine is too large) — exactly the
// cmd/resyn pipeline, behind HTTP.
//
// With Config.DataDir set the server is crash-safe: every job transition is
// a CRC-checked record in an append-only log (wal.go), fsynced on every
// append so a submission is only acknowledged once it is durable, and boot
// replays the log (recover.go) — terminal jobs repopulate the result cache,
// interrupted ones re-enqueue. Failures are classified (guard.Classify):
// transient ones retry with capped backoff and are never answered from the
// cache, permanent ones are. Lifecycle and retention (drain on SIGTERM,
// LRU/TTL eviction) live in lifecycle.go.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blif"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/kiss"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/parexec"
)

// Request is one job submission.
type Request struct {
	// Netlist is the circuit source text.
	Netlist string `json:"netlist"`
	// Format is "blif" (default) or "kiss2" (binary-encoded FSM
	// synthesis, as resyn -kiss).
	Format string `json:"format,omitempty"`
	// Flow is one of flows.FlowNames (default "resyn").
	Flow string `json:"flow,omitempty"`
	// Substrate selects the technology-independent representation the
	// flows restructure (flows.SubstrateNames; default "sop").
	Substrate string `json:"substrate,omitempty"`
	// Verify requests an equivalence check of the result against the
	// input through flows.VerifyVerdict (exact when feasible, random
	// simulation otherwise).
	Verify bool `json:"verify,omitempty"`
	// Sweep affects verification only: past the exact reach limits the
	// result is proved by k-induction ("proved-by-induction") before it
	// degrades to "simulated". The flow output does not depend on it, so
	// normalize clears it when Verify is off.
	Sweep bool `json:"sweep,omitempty"`
}

func (r *Request) normalize() {
	if r.Format == "" {
		r.Format = "blif"
	}
	if r.Flow == "" {
		r.Flow = "resyn"
	}
	if r.Substrate == "" {
		// Normalized before hashing so an explicit "sop" and the default
		// land on the same job.
		r.Substrate = flows.SubstrateSOP
	}
	if !r.Verify {
		r.Sweep = false
	}
}

// Key is the content address of the request: the sha256 of every field
// that determines the result. It is the job id, so a repeated submission
// lands on the cached job. Fields older clients still send but the result
// no longer depends on ("induction_k", "workers") are not decoded, so they
// neither reach the hash nor split one result over two jobs.
func (r Request) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%v\x00%v\x00", r.Format, r.Flow, r.Substrate, r.Verify, r.Sweep)
	h.Write([]byte(r.Netlist))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// parse builds the input network from the request source text.
func (r Request) parse() (*network.Network, error) {
	switch r.Format {
	case "blif":
		return blif.ParseString(r.Netlist)
	case "kiss2":
		fsm, err := kiss.ParseString(r.Netlist, "request")
		if err != nil {
			return nil, err
		}
		return fsm.Synthesize(kiss.Binary)
	}
	return nil, fmt.Errorf("serve: unknown format %q (blif | kiss2)", r.Format)
}

// validate rejects malformed requests; its errors are input-determined, so
// they classify permanent.
func (r Request) validate() error {
	if strings.TrimSpace(r.Netlist) == "" {
		return guard.WithClass(errors.New("serve: empty netlist"), guard.ErrClassPermanent)
	}
	if len(r.Netlist) > maxNetlistBytes {
		// Oversized inputs must be refused before the WAL sees them: a
		// submitted record embeds the netlist, and a record past the replay
		// line cap would append fine but fail recovery at the next boot.
		return guard.WithClass(fmt.Errorf("serve: netlist %d bytes exceeds the %d-byte limit", len(r.Netlist), maxNetlistBytes), guard.ErrClassPermanent)
	}
	if !flows.KnownFlow(r.Flow) {
		return guard.WithClass(fmt.Errorf("serve: unknown flow %q (have %v)", r.Flow, flows.FlowNames()), guard.ErrClassPermanent)
	}
	if !flows.KnownSubstrate(r.Substrate) {
		return guard.WithClass(fmt.Errorf("serve: unknown substrate %q (have %v)", r.Substrate, flows.SubstrateNames()), guard.ErrClassPermanent)
	}
	if _, err := r.parse(); err != nil {
		return guard.WithClass(err, guard.ErrClassPermanent)
	}
	return nil
}

// Config tunes a Server. Zero values take defaults.
type Config struct {
	// Workers bounds concurrent jobs (parexec.Workers normalization).
	Workers int
	// Queue bounds jobs waiting for a worker; a full queue sheds load
	// with 503 instead of accepting unbounded work.
	Queue int
	// Budget bounds each job (Job), its flows (Flow) and passes (Pass).
	Budget guard.Budget
	// Version is reported from /healthz.
	Version string

	// DataDir enables the durable job log: job transitions are written to
	// a WAL under this directory, fsynced on every append, and replayed on
	// boot. Empty keeps the legacy in-memory-only behaviour.
	DataDir string
	// MaxJobs bounds the job map: once exceeded, the least recently
	// touched *terminal* jobs are evicted (running and queued jobs are
	// never evicted). 0 means unbounded.
	MaxJobs int
	// JobTTL evicts terminal jobs this long after they finished. 0 keeps
	// them until MaxJobs pressure.
	JobTTL time.Duration
	// Retry governs re-execution of transiently failed jobs.
	Retry RetryPolicy
	// Chaos injects deterministic service-level faults (tests only; see
	// internal/faults.ServicePlan). Nil disables.
	Chaos Chaos
}

// Server owns the job cache and the worker pool. Create with New, mount
// Handler on an http.Server, and Shutdown (or Close) on exit.
type Server struct {
	cfg  Config
	lib  *genlib.Library
	pool *parexec.Pool
	reg  *obs.Registry
	wal  *wal // nil without DataDir

	// baseCtx parents every job context; Crash cancels it so in-flight
	// work dies with the simulated process.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	crashed  atomic.Bool
	drainCh  chan struct{} // closed by StartDrain; SSE handlers watch it

	rngMu sync.Mutex
	rng   *rand.Rand // retry jitter

	janitorStop chan struct{}
	janitorDone chan struct{}
	janitorOnce sync.Once

	recovery RecoveryStats

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for GET /jobs

	start time.Time

	mSubmitted *obs.Counter
	mCacheHits *obs.Counter
	mShed      *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mRetries   *obs.Counter
	mRecovered *obs.Counter
	mRequeued  *obs.Counter
	mEvictLRU  *obs.Counter
	mEvictTTL  *obs.Counter
	mWALErrors *obs.Counter
	mCompact   *obs.Counter
	mJobSec    *obs.Histogram
	gRunning   *obs.Gauge
	gQueue     *obs.Gauge
	gJobs      *obs.Gauge
	gWALBytes  *obs.Gauge
}

// New builds a Server, replaying the durable job log when cfg.DataDir is
// set: terminal jobs come back as cache entries, interrupted ones are
// re-enqueued. The caller must Shutdown (or Close) the server.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	cfg.Retry = cfg.Retry.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:         cfg,
		lib:         genlib.Lib2(),
		pool:        parexec.NewPool(cfg.Workers, cfg.Queue),
		reg:         reg,
		jobs:        make(map[string]*Job),
		drainCh:     make(chan struct{}),
		rng:         rand.New(rand.NewSource(cfg.Retry.Seed)),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		start:       time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.pool.OnPanic = func(r any) {
		// runJob already contains pass panics via guard; this hook is the
		// last line of defense for bugs in the job plumbing itself.
		s.reg.Counter("resynd_worker_panics_total", "tasks that escaped guard containment", nil).Inc()
	}
	s.mSubmitted = reg.Counter("resynd_jobs_submitted_total", "job submissions accepted (fresh or cached)", nil)
	s.mCacheHits = reg.Counter("resynd_cache_hits_total", "submissions answered by an existing job", nil)
	s.mShed = reg.Counter("resynd_jobs_shed_total", "submissions refused with 503 (queue full or draining)", nil)
	s.mDone = reg.Counter("resynd_jobs_completed_total", "jobs finished", obs.Labels{"state": "done"})
	s.mFailed = reg.Counter("resynd_jobs_completed_total", "jobs finished", obs.Labels{"state": "failed"})
	s.mRetries = reg.Counter("resynd_job_retries_total", "transiently failed job attempts that were retried", nil)
	s.mRecovered = reg.Counter("resynd_jobs_recovered_total", "jobs re-enqueued by crash recovery", nil)
	s.mRequeued = reg.Counter("resynd_jobs_requeued_total", "transient-failed jobs re-run on resubmission", nil)
	s.mEvictLRU = reg.Counter("resynd_jobs_evicted_total", "terminal jobs evicted from the map", obs.Labels{"reason": "lru"})
	s.mEvictTTL = reg.Counter("resynd_jobs_evicted_total", "terminal jobs evicted from the map", obs.Labels{"reason": "ttl"})
	s.mWALErrors = reg.Counter("resynd_wal_errors_total", "failed WAL appends (records not made durable)", nil)
	s.mCompact = reg.Counter("resynd_wal_compactions_total", "WAL compactions into a snapshot", nil)
	s.mJobSec = reg.Histogram("resynd_job_seconds", "end-to-end job wall time", obs.DefLatencyBuckets, nil)
	s.gRunning = reg.Gauge("resynd_jobs_running", "jobs currently executing", nil)
	s.gQueue = reg.Gauge("resynd_queue_depth", "jobs waiting for a worker", nil)
	s.gJobs = reg.Gauge("resynd_jobs_resident", "jobs resident in the map", nil)
	s.gWALBytes = reg.Gauge("resynd_wal_bytes", "bytes in the current WAL generation", nil)

	if cfg.DataDir != "" {
		if err := s.recover(); err != nil {
			s.pool.Close()
			return nil, err
		}
	}
	go s.janitor()
	return s, nil
}

// Registry exposes the server's metrics registry (for samplers and tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// errShed reports a full worker queue and errDraining a server past
// StartDrain; both map to 503 + Retry-After. errNotDurable reports a
// submission whose WAL record could not be made durable — the job is not
// accepted (an acked job must survive a crash), and the client should
// retry.
var (
	errShed       = errors.New("serve: worker queue full")
	errDraining   = errors.New("serve: draining, not accepting jobs")
	errNotDurable = errors.New("serve: job log append failed, submission not accepted")
)

// unavailable reports whether err should be answered with 503+Retry-After.
func unavailable(err error) bool {
	return errors.Is(err, errShed) || errors.Is(err, errDraining) || errors.Is(err, errNotDurable)
}

// Submit content-addresses req, returning the (possibly pre-existing) job
// and whether it was a cache hit. A validation failure returns an error
// the HTTP layer maps to 400; a full queue or draining server returns an
// unavailable() error for 503. A cached job that failed transiently is
// never served as a hit: it is reset and re-enqueued (fresh attempt
// budget), fixing the poisoned-cache behaviour where one deadline blip
// made a circuit permanently unserveable.
func (s *Server) Submit(req Request) (*Job, bool, error) {
	req.normalize()
	if err := req.validate(); err != nil {
		return nil, false, err
	}
	if s.draining.Load() {
		s.mShed.Inc()
		return nil, false, errDraining
	}
	id := req.Key()
	now := time.Now()

	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			j = newJob(id, req, now)
			s.jobs[id] = j
			s.order = append(s.order, id)
			s.mu.Unlock()
			if err := s.enqueue(j, walRecord{Type: "submitted", ID: id, Time: now, Req: &req}); err != nil {
				s.dropJob(id)
				j.reject(err)
				return nil, false, err
			}
			j.accept()
			s.mSubmitted.Inc()
			s.evictOverflow()
			return j, false, nil
		}
		s.mu.Unlock()

		// A pre-existing entry only answers once its creating submission is
		// past enqueue: before that point the job may still be rolled back
		// (queue full, WAL append failure), and acking a doomed job would
		// leave this caller polling an id that never runs.
		if err := j.waitAccepted(); err != nil {
			s.mShed.Inc()
			return nil, false, err
		}

		s.mu.Lock()
		if s.jobs[id] != j {
			// Evicted (or replaced) between the wait and the relock: retry
			// the lookup from scratch.
			s.mu.Unlock()
			continue
		}
		state, class := j.stateClass()
		if state != StateFailed || class != guard.ErrClassTransient.String() {
			j.touch(now)
			s.mu.Unlock()
			s.mSubmitted.Inc()
			s.mCacheHits.Inc()
			return j, true, nil
		}
		// Transient failure: re-run instead of serving the poisoned entry.
		// The reset happens under s.mu so a concurrent resubmission sees
		// StateQueued and coalesces instead of double-enqueueing.
		j.resetForRequeue(now)
		s.mu.Unlock()
		if err := s.enqueue(j, walRecord{Type: "requeued", ID: id, Time: now}); err != nil {
			// No worker slot (or no durability) for the re-run: land the job
			// back in failed/transient so it is not stuck queued with no
			// worker, and the next resubmission tries again.
			j.finish(time.Now(), nil, "", err, guard.ErrClassTransient, 0, false)
			return nil, false, err
		}
		s.mSubmitted.Inc()
		s.mRequeued.Inc()
		return j, false, nil
	}
}

// enqueue reserves a pool slot for j, durably logs rec, and only then
// releases the job to run — so a job never executes before the record that
// would recover it is on disk, and a shed submission leaves no trace in
// the log. On failure the caller rolls back its map entry.
func (s *Server) enqueue(j *Job, rec walRecord) error {
	ready := make(chan bool, 1)
	if !s.pool.TrySubmit(func() {
		if <-ready {
			s.runJob(j)
		}
	}) {
		s.mShed.Inc()
		return errShed
	}
	if err := s.logRecord(rec); err != nil {
		ready <- false
		s.mShed.Inc()
		return fmt.Errorf("%w: %v", errNotDurable, err)
	}
	ready <- true
	return nil
}

// dropJob rolls a failed submission out of the map. The order slice is
// scanned in full: a concurrent Submit may have appended behind this id, so
// a last-element-only check would leave a stale entry that Jobs() trips
// over forever.
func (s *Server) dropJob(id string) {
	s.mu.Lock()
	s.removeLocked(id)
	s.mu.Unlock()
}

// logRecord appends rec to the WAL when one is configured. The returned
// error is nil without a WAL (in-memory mode accepts everything).
func (s *Server) logRecord(rec walRecord) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Append(rec); err != nil {
		s.mWALErrors.Inc()
		return err
	}
	return nil
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if ok {
		j.touch(time.Now())
	}
	return j, ok
}

// Jobs snapshots all jobs in submission order.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		// Skip ids whose job is gone: the map, not order, is authoritative.
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.Info()
	}
	return out
}

// execute runs one attempt of the job pipeline: parse, flow, verify,
// render — under ctx, traced into tr.
func (s *Server) execute(ctx context.Context, j *Job, tr *obs.Tracer) (*JobResult, string, error) {
	src, err := j.req.parse()
	if err != nil {
		// Unreachable in the HTTP path (Submit validated), kept for
		// direct API users.
		return nil, "", guard.WithClass(err, guard.ErrClassPermanent)
	}
	cfg := flows.Config{
		Tracer:    tr,
		Budget:    s.cfg.Budget,
		Substrate: j.req.Substrate,
		Sweep:     j.req.Sweep,
	}
	result, err := flows.RunFlow(ctx, j.req.Flow, src, s.lib, cfg)
	if err != nil {
		return nil, "", err
	}
	res := &JobResult{
		Regs:    result.Metrics.Regs,
		Clk:     result.Metrics.Clk,
		Area:    result.Metrics.Area,
		PrefixK: result.PrefixK,
		Note:    result.Note,
		Verify:  "skipped",
	}
	if j.req.Verify {
		sp := tr.Begin("serve.verify")
		verdict, verr := flows.VerifyVerdict(ctx, src, result, cfg)
		sp.End()
		switch {
		case verr == nil && verdict == flows.VerdictSpotChecked:
			// The wire value predates the shared ladder; journaled
			// results and clients depend on it.
			res.Verify = "simulated"
		case verr == nil:
			res.Verify = verdict
		case errors.Is(verr, guard.ErrBudget):
			return nil, "", verr
		default:
			// A refutation is a property of the result, not of the
			// environment: retrying cannot change it.
			return nil, "", guard.WithClass(verr, guard.ErrClassPermanent)
		}
	}
	var out strings.Builder
	if err := blif.Write(&out, result.Net); err != nil {
		return nil, "", err
	}
	// Catch a cancellation that a pass absorbed silently so a budgeted job
	// never reports success past its deadline.
	if cerr := guard.Check(ctx, "serve.job"); cerr != nil {
		return nil, "", cerr
	}
	return res, out.String(), nil
}
