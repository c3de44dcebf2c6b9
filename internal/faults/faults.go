// Package faults is a deterministic, seed-driven fault-injection harness
// for the guard layer. An Injector decides per guarded-pass invocation
// whether to inject a failure mode (pass panic, output corruption, deadline
// exhaustion, BDD blowup), either forced per pass name for targeted
// scenarios or drawn from a seeded RNG for randomized sweeps. Every
// decision is recorded in an event log, so a failing scenario is replayable
// from its seed alone.
//
// The package's test suite is the acceptance harness for the robustness
// work: under every injected fault, every flow in flows.RunAll must
// either return a valid network (with a Metrics.Note footnote on degraded
// flows) or a typed guard error — never a raw panic, never a corrupted
// result.
package faults

import (
	"math/rand"
	"sync"

	"repro/internal/guard"
)

// Event records one injector consultation: which guarded pass asked, and
// which fault (possibly guard.FaultNone) was injected.
type Event struct {
	Pass string
	Kind guard.Fault
}

// Injector implements guard.Injector deterministically from a seed. The
// zero value is unusable; construct with NewInjector. Safe for concurrent
// use.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rate   float64
	kinds  []guard.Fault
	forced map[string]guard.Fault
	events []Event
}

// NewInjector builds an injector whose random decisions derive only from
// seed. Without Force or WithRate it injects nothing (but still logs every
// consultation).
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		forced: make(map[string]guard.Fault),
	}
}

// Force always injects kind into the named pass, overriding the random
// rate. It returns the injector for chaining.
func (i *Injector) Force(pass string, kind guard.Fault) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.forced[pass] = kind
	return i
}

// WithRate makes every non-forced consultation inject one of kinds with
// probability rate (uniformly chosen). It returns the injector for
// chaining.
func (i *Injector) WithRate(rate float64, kinds ...guard.Fault) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rate = rate
	i.kinds = append([]guard.Fault(nil), kinds...)
	return i
}

// Fault implements guard.Injector, recording the decision in the event
// log. Forced passes always get their forced kind; otherwise the seeded
// RNG draws against the configured rate.
func (i *Injector) Fault(pass string) guard.Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	kind, ok := i.forced[pass]
	if !ok && i.rate > 0 && len(i.kinds) > 0 {
		if i.rng.Float64() < i.rate {
			kind = i.kinds[i.rng.Intn(len(i.kinds))]
		}
	}
	i.events = append(i.events, Event{Pass: pass, Kind: kind})
	return kind
}

// Events returns a copy of the decision log in consultation order.
func (i *Injector) Events() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.events...)
}

// Fired reports whether the log contains an injection of kind into pass.
func (i *Injector) Fired(pass string, kind guard.Fault) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, e := range i.events {
		if e.Pass == pass && e.Kind == kind {
			return true
		}
	}
	return false
}
