package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/guard"
	"repro/internal/obs"
)

func circuitBLIF(t testing.TB, name string) string {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no bench circuit %q", name)
	}
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := blif.Write(&b, n); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func startServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t testing.TB, url string, req Request) (JobInfo, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

func waitDone(t testing.TB, url, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
		}
		var info JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.State.terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

// readSSE consumes the event stream until the final done frame, returning
// the data payloads of the regular frames and the done summary.
func readSSE(t *testing.T, url, id string) (events []obs.Event, done JobInfo) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			inDone = true
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			if inDone {
				if err := json.Unmarshal([]byte(payload), &done); err != nil {
					t.Fatalf("bad done frame %q: %v", payload, err)
				}
				return events, done
			}
			var e obs.Event
			if err := json.Unmarshal([]byte(payload), &e); err != nil {
				t.Fatalf("bad event frame %q: %v", payload, err)
			}
			events = append(events, e)
		}
	}
	t.Fatalf("SSE stream for %s ended without a done frame: %v", id, sc.Err())
	return nil, JobInfo{}
}

func TestServeJobLifecycleAndCache(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, Version: "test"})
	src := circuitBLIF(t, "s27")

	req := Request{Netlist: src, Flow: "script", Verify: true}
	info, status := postJob(t, ts.URL, req)
	if status != http.StatusAccepted {
		t.Fatalf("fresh submission status = %d, want 202", status)
	}
	if info.Cached {
		t.Fatal("fresh submission must not report cached")
	}
	if info.ID != req.normalized().Key() {
		t.Fatalf("job id %q is not the request content hash", info.ID)
	}

	final := waitDone(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	if final.Result == nil || final.Result.Regs <= 0 || final.Result.Clk <= 0 {
		t.Fatalf("missing result metrics: %+v", final.Result)
	}
	if final.Result.Verify != "exact" && final.Result.Verify != "simulated" {
		t.Fatalf("verify method = %q", final.Result.Verify)
	}

	// The result endpoint serves parseable BLIF.
	resp, err := http.Get(ts.URL + "/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %v", resp.StatusCode, err)
	}
	if _, err := blif.ParseString(out); err != nil {
		t.Fatalf("result is not BLIF: %v", err)
	}

	// Second identical submission: cache hit, same job, 200.
	again, status := postJob(t, ts.URL, req)
	if status != http.StatusOK || !again.Cached || again.ID != info.ID {
		t.Fatalf("repeat submission: status=%d cached=%v id=%s (want 200/true/%s)",
			status, again.Cached, again.ID, info.ID)
	}

	// A different flow is a different key.
	other, _ := postJob(t, ts.URL, Request{Netlist: src, Flow: "core"})
	if other.ID == info.ID {
		t.Fatal("different flow must hash to a different job")
	}
	waitDone(t, ts.URL, other.ID)
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var b strings.Builder
	_, err := bufio.NewReader(resp.Body).WriteTo(&b)
	return b.String(), err
}

// normalized is a test helper mirroring Submit's normalization so the test
// can predict the content hash.
func (r Request) normalized() Request {
	r.normalize()
	return r
}

func TestServeConcurrentJobsWithSSE(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 4})
	circuits := []string{"bbtas", "s27", "ex6", "ex2"}

	// Submit all four before reading any stream: the pool runs them
	// concurrently while each SSE reader tails its own job.
	ids := make([]string, len(circuits))
	for i, name := range circuits {
		info, status := postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, name), Flow: "script"})
		if status != http.StatusAccepted {
			t.Fatalf("%s: status %d", name, status)
		}
		ids[i] = info.ID
	}
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(name, id string) {
			defer wg.Done()
			events, done := readSSE(t, ts.URL, id)
			if done.State != StateDone {
				t.Errorf("%s: final state %s (%s)", name, done.State, done.Error)
				return
			}
			var starts, ends int
			for _, e := range events {
				switch e.Ev {
				case "span_start":
					starts++
				case "span_end":
					ends++
				}
			}
			if starts == 0 || ends == 0 {
				t.Errorf("%s: stream carried no per-pass progress (%d events)", name, len(events))
			}
		}(circuits[i], ids[i])
	}
	wg.Wait()

	// Late subscriber: all jobs are finished, yet the stream replays the
	// full history before the done frame.
	events, done := readSSE(t, ts.URL, ids[0])
	if len(events) == 0 || done.State != StateDone {
		t.Fatalf("late subscriber got %d events, state %s", len(events), done.State)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	cases := []Request{
		{Netlist: "", Flow: "script"},
		{Netlist: "this is not blif", Flow: "script"},
		{Netlist: circuitBLIF(t, "s27"), Flow: "nope"},
		{Netlist: ".i 2\n.o 1\ngarbage", Format: "kiss2"},
		{Netlist: circuitBLIF(t, "s27"), Format: "verilog"},
	}
	for i, req := range cases {
		if _, status := postJob(t, ts.URL, req); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, status)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status = %d, want 404", resp.StatusCode)
	}
}

// postLegacy posts req with extra raw JSON fields spliced in front, as an
// older client would send them, and returns the response.
func postLegacy(t *testing.T, url string, req Request, fields string) (JobInfo, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(body), "{", "{"+fields+",", 1)
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("body with %s: %v", fields, err)
	}
	return info, resp.StatusCode
}

// TestServeIgnoresLegacyWorkers: the per-request worker width left the
// wire format, since results are identical at any width. A body from an
// older client that still carries "workers" — any value, even one the old
// range check refused — is accepted and addresses the same job as the
// body without it, so one result is computed and cached once.
func TestServeIgnoresLegacyWorkers(t *testing.T) {
	req := Request{Netlist: circuitBLIF(t, "s27"), Flow: "script"}
	id := req.normalized().Key()
	for _, w := range []int{4, -1, 1000} {
		_, ts := startServer(t, Config{Workers: 1})
		info, status := postLegacy(t, ts.URL, req, fmt.Sprintf(`"workers":%d`, w))
		if status != http.StatusAccepted || info.ID != id {
			t.Fatalf("workers=%d: status %d id %q, want 202 and %q", w, status, info.ID, id)
		}
		if again, _ := postJob(t, ts.URL, req); again.ID != id || !again.Cached {
			t.Fatalf("workers=%d: body without the field got %+v, want the cached job %q", w, again, id)
		}
	}

	s, ts := startServer(t, Config{Workers: 1})
	postLegacy(t, ts.URL, req, `"workers":1`)
	postLegacy(t, ts.URL, req, `"workers":8`)
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("two bodies differing only in workers made jobs %+v, want the one job %q", jobs, id)
	}
	if final := waitDone(t, ts.URL, id); final.State != StateDone {
		t.Fatalf("job: %+v, want done", final)
	}
}

// writeSubmittedRecord writes a WAL holding one "submitted" record into
// dir, as an older server would have: the id is the sha256 of keyPrefix
// followed by netlist (that server's Key layout), and the request is the
// netlist plus the raw JSON fields. It returns the id.
func writeSubmittedRecord(t *testing.T, dir, keyPrefix, netlist, fields string) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s%s", keyPrefix, netlist)
	id := hex.EncodeToString(h.Sum(nil))[:32]
	quoted, err := json.Marshal(netlist)
	if err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(`{"type":"submitted","id":%q,"time":"2026-01-02T03:04:05Z","req":{"netlist":%s,%s}}`, id, quoted, fields)
	line := fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(rec), crcTable), rec)
	if err := os.WriteFile(filepath.Join(dir, walFileName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestServeReplaysWorkersRecord boots on a log written while the worker
// width was still part of the request: its submitted record carries
// "workers" and an id hashed with it. Replay keeps the stored id and runs
// the job to done.
func TestServeReplaysWorkersRecord(t *testing.T) {
	dir := t.TempDir()
	id := writeSubmittedRecord(t, dir, "blif\x00script\x00sop\x00true\x004\x00false\x00", circuitBLIF(t, "s27"),
		`"format":"blif","flow":"script","substrate":"sop","verify":true,"workers":4`)
	s, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rs := s.Recovery(); rs.Requeued != 1 {
		t.Fatalf("recovery stats: %+v, want one requeued job", rs)
	}
	final := waitTerminal(t, s, id)
	if final.State != StateDone || final.Result == nil || final.Result.Verify != "exact" {
		t.Fatalf("replayed job: %+v, want done and exact", final)
	}
}

func TestServeShedsWhenPoolClosed(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	s.Close() // no workers left: TrySubmit must refuse, POST must shed
	_, status := postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, "s27"), Flow: "script"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
}

func TestServeMetricsAndHealthz(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, Version: "v-test"})
	info, _ := postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, "bbtas"), Flow: "script"})
	waitDone(t, ts.URL, info.ID)
	postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, "bbtas"), Flow: "script"}) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"resynd_jobs_submitted_total 2",
		"resynd_cache_hits_total 1",
		`resynd_jobs_completed_total{state="done"} 1`,
		"resynd_job_seconds_bucket",
		`resynd_http_requests_total{route="post_jobs"}`,
		"resyn_span_seconds_bucket",
		"go_goroutines",
		"go_heap_objects_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string         `json:"status"`
		Version string         `json:"version"`
		Jobs    map[string]int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Version != "v-test" || hz.Jobs["done"] != 1 {
		t.Fatalf("healthz = %+v", hz)
	}
}

func TestServeSubstrateAIG(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	src := circuitBLIF(t, "bbtas")

	sop := Request{Netlist: src, Flow: "script", Verify: true}
	aig := Request{Netlist: src, Flow: "script", Substrate: "aig", Verify: true}
	if sop.normalized().Key() == aig.normalized().Key() {
		t.Fatal("substrate must participate in the job content hash")
	}
	explicit := Request{Netlist: src, Flow: "script", Substrate: "sop", Verify: true}
	if sop.normalized().Key() != explicit.normalized().Key() {
		t.Fatal("explicit sop and the default must hash to the same job")
	}

	info, status := postJob(t, ts.URL, aig)
	if status != http.StatusAccepted {
		t.Fatalf("aig submission status = %d, want 202", status)
	}
	final := waitDone(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("aig job failed: %+v", final)
	}
	if final.Result == nil || final.Result.Verify == "skipped" {
		t.Fatalf("aig job result not verified: %+v", final.Result)
	}

	// The substrate counters crossed the per-job tracer's registry bridge
	// into the Prometheus exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`resyn_counter_total{counter="aig_nodes"}`,
		`resyn_counter_total{counter="aig_strash_hits"}`,
		`resyn_counter_total{counter="aig_levels"}`,
		`resyn_counter_total{counter="aig_rewrite_gain"}`,
		`resyn_counter_total{counter="aig_cuts_pruned"}`,
		`resyn_counter_total{counter="aig_wave_count"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// An unknown substrate is a permanent validation failure.
	bad := Request{Netlist: src, Flow: "script", Substrate: "bdd"}
	if _, status := postJob(t, ts.URL, bad); status != http.StatusBadRequest {
		t.Fatalf("unknown substrate status = %d, want 400", status)
	}
}

func TestServeJobFailureIsReported(t *testing.T) {
	// A pass budget of one nanosecond exhausts immediately: the job must
	// land in failed with a budget error, not hang or crash.
	_, ts := startServer(t, Config{Workers: 1, Budget: guard.Budget{Pass: time.Nanosecond}})
	info, status := postJob(t, ts.URL, Request{Netlist: circuitBLIF(t, "s27"), Flow: "script"})
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	final := waitDone(t, ts.URL, info.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("want failed job with error, got %+v", final)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed job result status = %d, want 409", resp.StatusCode)
	}
}

// BenchmarkServeSubmit measures HTTP submit-to-terminal latency on the
// default serving mix (bbtas, s27, ex6 through the resyn flow) against an
// in-process server: one op is one POST /jobs followed by polling
// GET /jobs/{id} until the job ends. The first submission of each circuit
// runs the flow and every later one is a content-addressed cache hit, so
// at the default benchtime both percentiles time the cache-hit path.
func BenchmarkServeSubmit(b *testing.B) {
	_, ts := startServer(b, Config{})
	var netlists []string
	for _, name := range []string{"bbtas", "s27", "ex6"} {
		netlists = append(netlists, circuitBLIF(b, name))
	}
	ms := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		info, status := postJob(b, ts.URL, Request{Netlist: netlists[i%len(netlists)], Flow: "resyn"})
		if status != http.StatusAccepted && status != http.StatusOK {
			b.Fatalf("POST /jobs: status %d", status)
		}
		if final := waitDone(b, ts.URL, info.ID); final.State != StateDone {
			b.Fatalf("job %s ended %s: %s", info.ID, final.State, final.Error)
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	b.StopTimer()
	sort.Float64s(ms)
	b.ReportMetric(ms[len(ms)/2], "p50-ms")
	b.ReportMetric(ms[len(ms)*99/100], "p99-ms")
}
