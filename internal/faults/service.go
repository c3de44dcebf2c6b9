package faults

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/guard"
)

// ErrWALInjected is the write error a ServicePlan injects into the durable
// job log: the append fails, so the submission (or terminal record) is not
// made durable and the service must refuse or re-run the work rather than
// acknowledge something a crash would lose.
var ErrWALInjected = errors.New("faults: injected WAL write error")

// ServiceEvent records one service-level chaos consultation, in order, so
// a failing scenario can be diagnosed from its seed and log alone.
type ServiceEvent struct {
	// Op is "wal_write" | "wal_sync" | "job_fault" | "job_delay".
	Op string
	// ID is the job id for job_* consultations.
	ID string
	// Kind is the injected fault for job_fault (guard.FaultNone when
	// nothing fired).
	Kind guard.Fault
	// Err reports whether a wal_write consultation injected a failure.
	Err bool
	// Delay is the stall injected by wal_sync / job_delay.
	Delay time.Duration
}

// ServicePlan is the service-level extension of the guard-layer Injector:
// it implements the serve package's Chaos interface, injecting WAL write
// errors, fsync stalls, per-attempt job faults (contained panic, exhausted
// deadline) and slow passes, all drawn from one seeded RNG. Decisions are
// deterministic in sequence for a fixed seed and consultation order;
// concurrent workers interleave consultations nondeterministically, which
// is why every decision lands in the event log. Safe for concurrent use.
type ServicePlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	walErrRate   float64
	stallRate    float64
	stall        time.Duration
	panicRate    float64
	deadlineRate float64
	delayRate    float64
	delayMax     time.Duration

	forcedWALErrs int
	forcedJob     map[string][]guard.Fault

	events []ServiceEvent
}

// NewServicePlan builds a plan whose decisions derive only from seed. With
// no rates or forces configured it injects nothing (but still logs every
// consultation).
func NewServicePlan(seed int64) *ServicePlan {
	return &ServicePlan{
		rng:       rand.New(rand.NewSource(seed)),
		forcedJob: make(map[string][]guard.Fault),
	}
}

// WithWALErrRate makes each WAL append fail with probability rate.
func (p *ServicePlan) WithWALErrRate(rate float64) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.walErrRate = rate
	return p
}

// WithSyncStall inserts a stall of up to max between a WAL append's write
// and its fsync with probability rate, widening the window of unsynced
// bytes a crash loses.
func (p *ServicePlan) WithSyncStall(rate float64, max time.Duration) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stallRate, p.stall = rate, max
	return p
}

// WithJobFaults makes each job attempt panic (contained by guard) with
// probability panicRate, or start with an exhausted deadline with
// probability deadlineRate. Both classify transient, so they exercise the
// retry path.
func (p *ServicePlan) WithJobFaults(panicRate, deadlineRate float64) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.panicRate, p.deadlineRate = panicRate, deadlineRate
	return p
}

// WithJobDelay stalls each job attempt by up to max with probability rate
// (slow-pass injection: holds workers, fills the queue, widens crash
// windows).
func (p *ServicePlan) WithJobDelay(rate float64, max time.Duration) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delayRate, p.delayMax = rate, max
	return p
}

// ForceWALErrs fails the next n WAL appends unconditionally (targeted
// durability-refusal scenarios).
func (p *ServicePlan) ForceWALErrs(n int) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forcedWALErrs = n
	return p
}

// ForceJobFault queues kinds as the faults for id's next attempts, in
// order (attempts past the queue draw from the random rates). Targeted
// retry scenarios: force a deadline on attempt one, nothing on attempt
// two.
func (p *ServicePlan) ForceJobFault(id string, kinds ...guard.Fault) *ServicePlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forcedJob[id] = append(p.forcedJob[id], kinds...)
	return p
}

// WALWriteErr implements the serve Chaos interface.
func (p *ServicePlan) WALWriteErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	switch {
	case p.forcedWALErrs > 0:
		p.forcedWALErrs--
		err = ErrWALInjected
	case p.walErrRate > 0 && p.rng.Float64() < p.walErrRate:
		err = ErrWALInjected
	}
	p.events = append(p.events, ServiceEvent{Op: "wal_write", Err: err != nil})
	return err
}

// WALSyncStall implements the serve Chaos interface.
func (p *ServicePlan) WALSyncStall() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	if p.stallRate > 0 && p.stall > 0 && p.rng.Float64() < p.stallRate {
		d = time.Duration(p.rng.Int63n(int64(p.stall) + 1))
	}
	p.events = append(p.events, ServiceEvent{Op: "wal_sync", Delay: d})
	return d
}

// JobFault implements the serve Chaos interface.
func (p *ServicePlan) JobFault(id string) guard.Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	kind := guard.FaultNone
	if q := p.forcedJob[id]; len(q) > 0 {
		kind, p.forcedJob[id] = q[0], q[1:]
	} else if r := p.rng.Float64(); p.panicRate > 0 && r < p.panicRate {
		kind = guard.FaultPanic
	} else if p.deadlineRate > 0 && r < p.panicRate+p.deadlineRate {
		kind = guard.FaultDeadline
	}
	p.events = append(p.events, ServiceEvent{Op: "job_fault", ID: id, Kind: kind})
	return kind
}

// JobDelay implements the serve Chaos interface.
func (p *ServicePlan) JobDelay(id string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	if p.delayRate > 0 && p.delayMax > 0 && p.rng.Float64() < p.delayRate {
		d = time.Duration(p.rng.Int63n(int64(p.delayMax) + 1))
	}
	p.events = append(p.events, ServiceEvent{Op: "job_delay", ID: id, Delay: d})
	return d
}

// ServiceEvents returns a copy of the decision log in consultation order.
func (p *ServicePlan) ServiceEvents() []ServiceEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ServiceEvent(nil), p.events...)
}
