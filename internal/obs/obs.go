// Package obs is the pipeline-wide observability layer: hierarchical wall-
// clock spans (flow → pass → step), typed transformation counters, and a
// fan-out of sinks — a human-readable summary tree, a JSON-lines event
// stream, live event-bus subscriptions (bus.go), and a Prometheus-style
// metrics registry (metrics.go).
//
// The paper's argument is quantitative (Table I compares flows on
// registers, clock period, and area), so every flow and pass in this
// repository reports *what it did* (gates duplicated, stems split, DCret
// pairs discovered, literals saved, retiming moves applied/reverted, BDD
// frontier sizes, mapper candidates tried) and *how long it took*. Any
// hot-path claim in later PRs must come with a span breakdown from this
// package, and the serving layer (internal/serve) tails the same stream
// live over SSE.
//
// Every method is nil-safe: a nil *Tracer (and the nil *Span it hands out)
// is a zero-allocation no-op, so instrumented call sites never need to
// guard. All methods are safe for concurrent use from multiple goroutines;
// see the Begin documentation for what concurrent span nesting means.
// Stdlib only.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer owns a tree of spans and a set of event sinks. The zero value is
// not usable; construct with New or NewJSON. A nil Tracer is a valid no-op.
//
// Concurrency: every method may be called from any goroutine. The JSON-
// lines sink is the tracer's first subscriber and is written synchronously
// under the tracer lock, so its line order matches event order exactly;
// SubscribeFunc callbacks observe the same order.
type Tracer struct {
	mu    sync.Mutex
	root  *Span
	cur   *Span
	start time.Time
	json  io.Writer
	fns   map[int]func(Event)
	fnSeq int
	reg   *Registry
	seq   atomic.Uint64 // event sequence numbers, monotone per tracer
	// Cached registry handles for the hot Add/Max paths (see metrics.go).
	regCounters map[string]*Counter
	regPeaks    map[string]*Gauge
}

// Span is one timed region of the pipeline. Spans nest: Begin under an
// open span creates a child. A nil Span is a valid no-op.
type Span struct {
	Name     string
	tracer   atomic.Pointer[Tracer]
	parent   *Span
	children []*Span
	counters map[string]int64
	maxKeys  []string // counter names recorded via Max (peak semantics)
	start    time.Time
	dur      time.Duration
	open     bool
}

// New creates a tracer with no JSON sink.
func New() *Tracer {
	t := &Tracer{start: time.Now()}
	t.root = &Span{start: t.start, open: true}
	t.root.tracer.Store(t)
	t.cur = t.root
	return t
}

// NewJSON creates a tracer that additionally streams every span start/end
// and event to w as JSON lines (one Event object per line).
func NewJSON(w io.Writer) *Tracer {
	t := New()
	t.json = w
	return t
}

// SetJSON attaches (or replaces) the JSON-lines sink.
func (t *Tracer) SetJSON(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.json = w
	t.mu.Unlock()
}

// SetRegistry attaches a metrics registry: from now on every span end
// observes a pass-latency histogram, every counter Add increments a
// registry counter, and every Max raises a peak gauge (see the bridge in
// metrics.go). A nil registry detaches.
func (t *Tracer) SetRegistry(r *Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reg = r
	t.regCounters = nil
	t.regPeaks = nil
	t.mu.Unlock()
}

// lockTracer locks and returns the tracer currently owning s. Merge moves
// spans between tracers while holding both locks, so the owner is re-read
// after acquisition and the lock retried if it changed mid-flight.
func (s *Span) lockTracer() *Tracer {
	for {
		t := s.tracer.Load()
		t.mu.Lock()
		if s.tracer.Load() == t {
			return t
		}
		t.mu.Unlock()
	}
}

// Begin opens a new span as a child of the innermost open span and makes
// it current. It returns nil on a nil tracer.
//
// Concurrent Begin calls from multiple goroutines are safe: each span is
// attached under whichever span was current at that instant, so the tree
// shape interleaves (it reflects wall-clock overlap, not call structure).
// Workers that need a deterministic tree should trace into private
// tracers and Merge them back in order, as internal/parexec callers do.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, parent: t.cur, start: time.Now(), open: true}
	s.tracer.Store(t)
	t.cur.children = append(t.cur.children, s)
	t.cur = s
	t.emit(Event{Ev: "span_start", Span: s.path(), TMs: t.sinceStart(s.start)})
	return s
}

// End closes the span, records its duration, and pops the current-span
// cursor back to its parent when the span is on the cursor path (closing
// any children left open by early returns on the way). Ending a span that
// is not on the cursor path — another goroutine moved it — only closes
// the span itself. Ending an already-closed span, or the root, is a no-op.
func (s *Span) End() {
	if s == nil || s.parent == nil {
		return
	}
	t := s.lockTracer()
	defer t.mu.Unlock()
	if !s.open {
		return
	}
	// Pop the cursor only when s is an ancestor of (or is) the current
	// span; otherwise a concurrent goroutine owns the cursor and closing
	// unrelated spans would corrupt its nesting.
	onPath := false
	for c := t.cur; c != nil; c = c.parent {
		if c == s {
			onPath = true
			break
		}
	}
	if onPath {
		for c := t.cur; c != s; c = c.parent {
			if c.open {
				c.closeNow(t)
			}
		}
		t.cur = s.parent
	}
	s.closeNow(t)
}

// closeNow marks the span closed and emits its end event plus the registry
// observations. Caller holds t.mu.
func (s *Span) closeNow(t *Tracer) {
	s.dur = time.Since(s.start)
	s.open = false
	t.emit(Event{
		Ev:       "span_end",
		Span:     s.path(),
		TMs:      t.sinceStart(time.Now()),
		DurMs:    float64(s.dur) / float64(time.Millisecond),
		Counters: copyCounters(s.counters),
	})
	t.bridgeSpanEnd(s)
}

// Add increments a named counter on the span.
func (s *Span) Add(name string, n int64) {
	if s == nil {
		return
	}
	t := s.lockTracer()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += n
	t.bridgeCounterAdd(name, n)
	t.mu.Unlock()
}

// Max raises a named counter to v if v is larger (peak-style metrics:
// frontier sizes, node counts).
func (s *Span) Max(name string, v int64) {
	if s == nil {
		return
	}
	t := s.lockTracer()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	if _, seen := s.counters[name]; !seen {
		s.maxKeys = append(s.maxKeys, name)
	}
	if v > s.counters[name] {
		s.counters[name] = v
		t.bridgePeak(name, v)
	}
	t.mu.Unlock()
}

// Counter returns the span's own value of one counter (children excluded).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	t := s.lockTracer()
	defer t.mu.Unlock()
	return s.counters[name]
}

// Dur returns the span's wall-clock duration (elapsed-so-far while open).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	t := s.lockTracer()
	defer t.mu.Unlock()
	if s.open {
		return time.Since(s.start)
	}
	return s.dur
}

// Add increments a counter on the innermost open span.
func (t *Tracer) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.cur
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += n
	t.bridgeCounterAdd(name, n)
	t.mu.Unlock()
}

// Event emits a free-form named event (with optional fields) to the sinks,
// tagged with the current span path. No-op without a sink or subscriber.
func (t *Tracer) Event(name string, fields map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emit(Event{Ev: "event", Name: name, Span: t.cur.path(), TMs: t.sinceStart(time.Now()), Fields: fields})
}

// Merge grafts the span tree of sub under the innermost open span of t and
// adds sub's root counters there. It exists for the parallel evaluation
// flows: each worker traces into a private tracer, and the coordinator
// merges the finished tracers back in input order so the combined tree is
// identical to a sequential run's.
//
// sub must be quiescent — its goroutine done, every span ended (any still
// open are force-closed defensively) — and must not be used afterwards:
// its spans now belong to t. (A straggler Span.Add racing the merge is
// still memory-safe — span ownership is re-checked under the lock — but
// which tracer receives the count is then unspecified.) Merging a tracer
// into itself is a no-op.
func (t *Tracer) Merge(sub *Tracer) {
	if t == nil || sub == nil || t == sub {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sub.mu.Lock()
	defer sub.mu.Unlock()
	var adopt func(s, parent *Span)
	adopt = func(s, parent *Span) {
		s.tracer.Store(t)
		s.parent = parent
		if s.open {
			s.dur = time.Since(s.start)
			s.open = false
		}
		for _, c := range s.children {
			adopt(c, s)
		}
	}
	for _, c := range sub.root.children {
		adopt(c, t.cur)
		t.cur.children = append(t.cur.children, c)
	}
	if len(sub.root.counters) > 0 && t.cur.counters == nil {
		t.cur.counters = make(map[string]int64)
	}
	for k, v := range sub.root.counters {
		t.cur.counters[k] += v
	}
	sub.root.children = nil
	sub.root.counters = nil
	sub.cur = sub.root
}

// Root returns the implicit root span (its children are the top-level
// spans begun on the tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Children returns the span's child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	t := s.lockTracer()
	defer t.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first descendant span (depth-first) with the given
// name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.lockTracer()
	defer t.mu.Unlock()
	return s.find(name)
}

func (s *Span) find(name string) *Span {
	for _, c := range s.children {
		if c.Name == name {
			return c
		}
		if r := c.find(name); r != nil {
			return r
		}
	}
	return nil
}

// Counters aggregates every counter over the whole span tree.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64)
	var walk func(s *Span)
	walk = func(s *Span) {
		for k, v := range s.counters {
			out[k] += v
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Counter returns one aggregated counter value over the whole tree.
func (t *Tracer) Counter(name string) int64 { return t.Counters()[name] }

// WriteTree renders the human-readable summary: one line per span,
// indented by depth, with wall time and any counters.
func (t *Tracer) WriteTree(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		d := s.dur
		if s.open {
			d = time.Since(s.start)
		}
		fmt.Fprintf(w, "%-*s%-*s %9.2fms%s\n",
			2*depth, "", 44-2*depth, s.Name, float64(d)/float64(time.Millisecond),
			formatCounters(s.counters))
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	for _, c := range t.root.children {
		walk(c, 0)
	}
	if len(t.root.counters) > 0 {
		fmt.Fprintf(w, "(root)%s\n", formatCounters(t.root.counters))
	}
}

func formatCounters(c map[string]int64) string {
	if len(c) == 0 {
		return ""
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

func (s *Span) path() string {
	if s == nil || s.parent == nil {
		return ""
	}
	p := s.parent.path()
	if p == "" {
		return s.Name
	}
	return p + "/" + s.Name
}

func (t *Tracer) sinceStart(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Millisecond)
}

// emit delivers one event to every sink: the synchronous JSON-lines
// writer and every registered callback. Caller holds t.mu.
func (t *Tracer) emit(e Event) {
	if t.json == nil && len(t.fns) == 0 {
		return
	}
	e.Seq = t.seq.Add(1)
	if t.json != nil {
		if b, err := json.Marshal(e); err == nil {
			t.json.Write(append(b, '\n'))
		}
	}
	for _, fn := range t.fns {
		fn(e)
	}
}

func copyCounters(c map[string]int64) map[string]int64 {
	if len(c) == 0 {
		return nil
	}
	out := make(map[string]int64, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Event is one line of the JSON-lines stream (and the unit delivered to
// SubscribeFunc callbacks).
//
//	{"ev":"span_start","span":"flow.resynthesis/core.resynthesize","seq":1,"t_ms":1.2}
//	{"ev":"span_end","span":"...","seq":4,"t_ms":4.8,"dur_ms":3.6,"counters":{"dcret_pairs":2}}
//	{"ev":"event","name":"reach_iter","span":"reach.analyze","seq":2,"t_ms":0.4,"fields":{"depth":3}}
type Event struct {
	Ev       string           `json:"ev"`
	Span     string           `json:"span,omitempty"`
	Name     string           `json:"name,omitempty"`
	Seq      uint64           `json:"seq,omitempty"`
	TMs      float64          `json:"t_ms"`
	DurMs    float64          `json:"dur_ms,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Fields   map[string]any   `json:"fields,omitempty"`
}

// ReadEvents parses a JSON-lines stream produced by a Tracer sink. Blank
// lines are skipped silently. A malformed line — truncated mid-write, two
// lines interleaved by a crashed writer, or junk — is skipped and counted
// rather than failing the whole read, so a partial trace from an aborted
// run still yields every intact event. The returned error is non-nil only
// for a failing reader.
func ReadEvents(r io.Reader) (events []Event, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		var e Event
		if json.Unmarshal([]byte(s), &e) != nil || e.Ev == "" {
			skipped++
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, skipped, err
	}
	return events, skipped, nil
}
