package obs

// Tests for the live-telemetry additions: tracer concurrency safety, the
// event bus, lenient JSONL reading, and the metrics registry.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentTracerHammer hammers one tracer from 8 goroutines with the
// full Begin/Add/Max/Event/End surface plus concurrent readers. Run under
// -race in CI; it also checks that no counter increments are lost.
func TestConcurrentTracerHammer(t *testing.T) {
	var sink bytes.Buffer // shared JSONL sink, written under the tracer lock
	tr := NewJSON(&sink)
	tr.SetRegistry(NewRegistry())
	var seen atomic.Int64 // live consumer called from every writer
	cancel := tr.SubscribeFunc(func(Event) { seen.Add(1) })
	defer cancel()

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.Begin(fmt.Sprintf("worker%d.pass", g))
				sp.Add("hammer_ops", 1)
				sp.Max("hammer_peak", int64(i))
				tr.Add("tracer_adds", 1)
				tr.Event("tick", map[string]any{"g": g})
				inner := tr.Begin(fmt.Sprintf("worker%d.step", g))
				inner.Add("hammer_ops", 1)
				inner.End()
				_ = sp.Dur()
				_ = sp.Counter("hammer_ops")
				sp.End()
			}
		}(g)
	}
	// Concurrent readers of the whole tree while writers run.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Counters()
				tr.WriteTree(&bytes.Buffer{})
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	if got, want := tr.Counter("hammer_ops"), int64(2*goroutines*iters); got != want {
		t.Fatalf("hammer_ops = %d, want %d (lost increments)", got, want)
	}
	if got, want := tr.Counter("tracer_adds"), int64(goroutines*iters); got != want {
		t.Fatalf("tracer_adds = %d, want %d", got, want)
	}
	// Every span must be closed and the cursor back at the root, so the
	// tracer is still usable sequentially afterwards.
	after := tr.Begin("after")
	after.End()
	if after.Dur() <= 0 {
		t.Fatal("tracer unusable after concurrent hammering")
	}
	// The interleaved JSONL stream must still be fully parseable.
	evs, skipped, err := ReadEvents(&sink)
	if err != nil || skipped != 0 {
		t.Fatalf("JSONL stream damaged by concurrency: err=%v skipped=%d", err, skipped)
	}
	if len(evs) == 0 {
		t.Fatal("no events captured")
	}
	if got := seen.Load(); got != int64(len(evs)) {
		t.Fatalf("live subscriber saw %d events, JSONL sink %d", got, len(evs))
	}
}

// TestConcurrentMergeAndAdd races Span.Add on a grafted span against
// Merge moving it between tracers (the lock-ownership retry path).
func TestConcurrentMergeAndAdd(t *testing.T) {
	for i := 0; i < 50; i++ {
		main := New()
		sub := New()
		sp := sub.Begin("worker")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp.Add("n", 1)
			}
		}()
		go func() {
			defer wg.Done()
			main.Merge(sub)
		}()
		wg.Wait()
		if got := main.Counter("n") + sub.Counter("n"); got != 100 {
			t.Fatalf("adds lost across merge: %d", got)
		}
	}
}

func TestEndOffCursorPathOnlyClosesItself(t *testing.T) {
	tr := New()
	a := tr.Begin("a")
	b := tr.Begin("b")
	c := tr.Begin("c")
	// End b's sibling-by-time a? No: end a (ancestor of cursor) closes b, c.
	a.End()
	if b.Dur() <= 0 || c.Dur() <= 0 {
		t.Fatal("descendants left open by ancestor End")
	}
	// Ending an already-detached span must not disturb the cursor.
	d := tr.Begin("d")
	b.End() // no-op: already closed
	e := tr.Begin("e")
	e.End()
	d.End()
	if tr.Root().Find("e") == nil {
		t.Fatal("cursor corrupted by off-path End")
	}
	// Ending the root is a no-op.
	tr.Root().End()
	if f := tr.Begin("f"); f == nil {
		t.Fatal("tracer dead after root End")
	}
}

func TestReadEventsMidLineTruncation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSON(&buf)
	for i := 0; i < 5; i++ {
		sp := tr.Begin("pass")
		sp.Add("n", int64(i))
		sp.End()
	}
	whole := buf.Bytes()
	// Cut mid-line: a crashed writer leaves a truncated final record.
	cut := bytes.LastIndexByte(whole[:len(whole)-2], '{')
	truncated := whole[:cut+3]
	evs, skipped, err := ReadEvents(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the truncated tail)", skipped)
	}
	if len(evs) != 9 { // 5 starts + 4 intact ends
		t.Fatalf("intact events = %d, want 9", len(evs))
	}
}

func TestReadEventsInterleavedLines(t *testing.T) {
	// Two writers without a shared lock can jam two records onto one line
	// and split another across two; every intact line must survive.
	stream := `{"ev":"span_start","span":"a","t_ms":1}
{"ev":"span_start","span":"b","t_ms":2}{"ev":"span_end","span":"b","t_ms":3}
{"ev":"span_end","spa
n":"a","t_ms":4}
{"ev":"event","name":"ok","t_ms":5}
{}
`
	evs, skipped, err := ReadEvents(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("intact events = %d, want 2: %+v", len(evs), evs)
	}
	if skipped != 4 { // jammed line, two halves of the split line, bare {}
		t.Fatalf("skipped = %d, want 4", skipped)
	}
}

func TestSubscribeFuncSeesEveryEvent(t *testing.T) {
	tr := New()
	var mu sync.Mutex
	var seen []string
	cancel := tr.SubscribeFunc(func(e Event) {
		mu.Lock()
		seen = append(seen, e.Ev)
		mu.Unlock()
	})
	sp := tr.Begin("p")
	sp.End()
	cancel()
	cancel() // idempotent
	tr.Event("after", nil)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "span_start" || seen[1] != "span_end" {
		t.Fatalf("callback subscriber saw %v", seen)
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs submitted.", Labels{"flow": "resyn"}).Add(3)
	r.Counter("jobs_total", "Jobs submitted.", Labels{"flow": "script"}).Inc()
	r.Gauge("queue_depth", "Queued jobs.", nil).Set(7)
	h := r.Histogram("latency_seconds", "Job latency.", []float64{0.1, 1, 10}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`# TYPE jobs_total counter`,
		`jobs_total{flow="resyn"} 3`,
		`jobs_total{flow="script"} 1`,
		`# TYPE queue_depth gauge`,
		`queue_depth 7`,
		`# TYPE latency_seconds histogram`,
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="10"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		`latency_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", Labels{"note": "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `note="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

func TestRegistryNilIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x", "", nil).Add(1)
	r.Gauge("x", "", nil).Set(1)
	r.Histogram("x", "", nil, nil).Observe(1)
	r.WritePrometheus(&bytes.Buffer{})
	r.SampleRuntime()
	stop := r.StartRuntimeSampler(time.Second)
	stop()
}

func TestRegistryTypeClashIsNoOp(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil).Inc()
	r.Gauge("m", "", nil).Set(5) // clash: silently no-op, counter untouched
	if got := r.Counter("m", "", nil).Value(); got != 1 {
		t.Fatalf("type clash corrupted metric: %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("ops_total", "", Labels{"g": "x"}).Inc()
				r.Gauge("peak", "", nil).SetMax(float64(i))
				r.Histogram("lat", "", nil, nil).Observe(float64(i) / 1000)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", "", Labels{"g": "x"}).Value(); got != 4000 {
		t.Fatalf("lost counter increments: %v", got)
	}
	if got := r.Histogram("lat", "", nil, nil).Count(); got != 4000 {
		t.Fatalf("lost observations: %v", got)
	}
	if got := r.Gauge("peak", "", nil).Value(); got != 499 {
		t.Fatalf("SetMax wrong: %v", got)
	}
}

func TestSampleRuntimePopulatesGauges(t *testing.T) {
	r := NewRegistry()
	r.SampleRuntime()
	if r.Gauge("go_goroutines", "", nil).Value() < 1 {
		t.Fatal("goroutine gauge empty")
	}
	if r.Gauge("go_heap_objects_bytes", "", nil).Value() <= 0 {
		t.Fatal("heap gauge empty")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "go_goroutines") {
		t.Fatal("runtime gauges missing from exposition")
	}
}

// TestTracerRegistryBridge checks the Span→Registry plumbing: latency
// histogram per span name, counter totals, peak gauges, and the bitsim
// throughput histogram.
func TestTracerRegistryBridge(t *testing.T) {
	r := NewRegistry()
	tr := New()
	tr.SetRegistry(r)
	sp := tr.Begin("mapper.map_delay")
	sp.Add("mapper_candidates", 4)
	sp.Max("bdd_nodes", 100)
	sp.Max("bdd_nodes", 50) // not a new peak: no gauge change
	sp.End()
	bs := tr.Begin("bitsim.random_equivalent")
	bs.Add("bitsim_vectors", 1<<20)
	bs.End()

	if got := r.Counter("resyn_counter_total", "", Labels{"counter": "mapper_candidates"}).Value(); got != 4 {
		t.Fatalf("bridged counter = %v, want 4", got)
	}
	if got := r.Gauge("resyn_peak_max", "", Labels{"counter": "bdd_nodes"}).Value(); got != 100 {
		t.Fatalf("bridged peak = %v, want 100", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`resyn_span_seconds_bucket{span="mapper.map_delay",le=`,
		`resyn_peak_bucket{counter="bdd_nodes",le=`,
		`resyn_bitsim_vectors_per_second_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("bridge exposition missing %q:\n%s", want, out)
		}
	}
}
