package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/blif"
)

// LoadConfig drives RunLoad against a resynd instance.
type LoadConfig struct {
	// Target is the base URL ("http://127.0.0.1:8080").
	Target string
	// QPS is the submission rate (default 2).
	QPS float64
	// Duration bounds the submission window (default 10s); in-flight jobs
	// are always drained afterwards.
	Duration time.Duration
	// Circuits names bench registry entries to cycle through (default: a
	// small FSM trio that keeps smoke runs fast).
	Circuits []string
	// Flow is the flow submitted with every request (default "resyn").
	Flow string
	// Verify asks the service to verify each result.
	Verify bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// LoadReport is the benchmark artifact (schema bench_serve/v2). v2 adds
// the robustness counters (non-2xx responses, client retries, jobs
// recovered across an outage) and the pre-restart cache hit rate used by
// the two-phase crash-recovery replay.
type LoadReport struct {
	Schema      string   `json:"schema"`
	Target      string   `json:"target"`
	Flow        string   `json:"flow"`
	Circuits    []string `json:"circuits"`
	QPS         float64  `json:"qps_target"`
	DurationSec float64  `json:"duration_sec"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Shed      int `json:"shed"`
	CacheHits int `json:"cache_hits"`

	// Non2xx counts HTTP responses outside the 2xx range (shed 503s, error
	// statuses) across submissions and polls.
	Non2xx int `json:"non_2xx"`
	// Retries counts submission attempts beyond the first (backoff after a
	// 503 or a transport error).
	Retries int `json:"retries"`
	// Recovered counts jobs that completed only after the client observed
	// an outage (transport error or 503 mid-lifecycle) — i.e. work that
	// survived a server restart.
	Recovered int `json:"recovered"`

	JobsPerSec   float64 `json:"jobs_per_sec"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheHitRatePreRestart carries phase one's hit rate in a two-phase
	// crash-recovery replay (-loadgen-restart): comparing it with
	// CacheHitRate (phase two, after the restart) shows whether the durable
	// log preserved the cache.
	CacheHitRatePreRestart float64 `json:"cache_hit_rate_pre_restart,omitempty"`

	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP90  float64 `json:"latency_ms_p90"`
	LatencyMsP99  float64 `json:"latency_ms_p99"`
	LatencyMsMean float64 `json:"latency_ms_mean"`
	LatencyMsMax  float64 `json:"latency_ms_max"`
}

// LoadSchema is the current report schema tag.
const LoadSchema = "bench_serve/v2"

// DefaultLoadCircuits is the cheap trio used when LoadConfig.Circuits is
// empty: small enough that a smoke run finishes in seconds, and three
// distinct circuits so the content-addressed cache sees both fresh keys and
// repeats.
var DefaultLoadCircuits = []string{"bbtas", "s27", "ex6"}

// RunLoad replays the named benchmark circuits against cfg.Target at
// cfg.QPS for cfg.Duration, polls every job to completion, and reports
// end-to-end latency percentiles, throughput and the cache hit rate.
// Submissions that hit a 503 or a transport error are retried under
// DefaultRetryPolicy — the policy the server uses for job retries, so both
// sides of the connection back off in the same shape — and jobs that
// complete after an observed outage are counted as recovered, so a run
// spanning a server restart quantifies how much work the durable log
// saved.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.QPS <= 0 {
		cfg.QPS = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Flow == "" {
		cfg.Flow = "resyn"
	}
	if len(cfg.Circuits) == 0 {
		cfg.Circuits = DefaultLoadCircuits
	}
	retry := DefaultRetryPolicy.withDefaults()
	client := &http.Client{Timeout: 30 * time.Second}
	logf := func(format string, a ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", a...)
		}
	}

	// Render every circuit to BLIF once, up front.
	netlists := make([]string, 0, len(cfg.Circuits))
	for _, name := range cfg.Circuits {
		c, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown circuit %q", name)
		}
		n, err := c.Build()
		if err != nil {
			return nil, fmt.Errorf("loadgen: build %s: %w", name, err)
		}
		var b strings.Builder
		if err := blif.Write(&b, n); err != nil {
			return nil, fmt.Errorf("loadgen: render %s: %w", name, err)
		}
		netlists = append(netlists, b.String())
	}

	rep := &LoadReport{
		Schema:   LoadSchema,
		Target:   cfg.Target,
		Flow:     cfg.Flow,
		Circuits: cfg.Circuits,
		QPS:      cfg.QPS,
	}
	var (
		mu        sync.Mutex
		latencies []float64
		wg        sync.WaitGroup
	)
	record := func(d time.Duration, cached, failed, recovered bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case failed:
			rep.Failed++
		default:
			rep.Completed++
			latencies = append(latencies, float64(d)/float64(time.Millisecond))
			if recovered {
				rep.Recovered++
			}
		}
		if cached {
			rep.CacheHits++
		}
	}
	count := func(non2xx, retries int) {
		mu.Lock()
		rep.Non2xx += non2xx
		rep.Retries += retries
		mu.Unlock()
	}

	interval := time.Duration(float64(time.Second) / cfg.QPS)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	i := 0
	for now := start; now.Before(deadline); now = <-tick.C {
		netlist := netlists[i%len(netlists)]
		seq := i
		i++
		rep.Submitted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-submission deterministic jitter stream.
			rng := rand.New(rand.NewSource(retry.Seed + int64(seq)))
			t0 := time.Now()
			info, cached, st, err := submitJob(client, cfg.Target, Request{Netlist: netlist, Flow: cfg.Flow, Verify: cfg.Verify}, retry, rng)
			count(st.non2xx, st.retries)
			if err != nil {
				mu.Lock()
				rep.Shed++
				mu.Unlock()
				logf("loadgen: submit: %v", err)
				return
			}
			sawOutage := st.retries > 0
			final, outage, err := pollJob(client, cfg.Target, info.ID, retry, rng)
			sawOutage = sawOutage || outage
			if err != nil || final.State != StateDone {
				record(0, cached, true, false)
				logf("loadgen: job %s: state=%s err=%v", info.ID, final.State, err)
				return
			}
			record(time.Since(t0), cached, false, sawOutage)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.DurationSec = elapsed.Seconds()
	if elapsed > 0 {
		rep.JobsPerSec = float64(rep.Completed) / elapsed.Seconds()
	}
	if rep.Submitted > rep.Shed {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.Submitted-rep.Shed)
	}
	sort.Float64s(latencies)
	rep.LatencyMsP50 = percentile(latencies, 0.50)
	rep.LatencyMsP90 = percentile(latencies, 0.90)
	rep.LatencyMsP99 = percentile(latencies, 0.99)
	if len(latencies) > 0 {
		var sum float64
		for _, v := range latencies {
			sum += v
		}
		rep.LatencyMsMean = sum / float64(len(latencies))
		rep.LatencyMsMax = latencies[len(latencies)-1]
	}
	logf("loadgen: %d submitted, %d completed, %d failed, %d shed, %d retries, %d recovered, cache hit rate %.2f, p50 %.1fms p99 %.1fms",
		rep.Submitted, rep.Completed, rep.Failed, rep.Shed, rep.Retries, rep.Recovered, rep.CacheHitRate, rep.LatencyMsP50, rep.LatencyMsP99)
	return rep, nil
}

// percentile interpolates the q-quantile of sorted values (ms).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// submitStats carries the per-submission robustness counters back to the
// aggregator.
type submitStats struct {
	non2xx  int
	retries int
}

// submitJob POSTs the request, retrying 503s and transport errors under
// the shared backoff policy. Permanent statuses (400s other than 429) fail
// immediately.
func submitJob(client *http.Client, target string, req Request, policy RetryPolicy, rng *rand.Rand) (JobInfo, bool, submitStats, error) {
	var st submitStats
	body, err := json.Marshal(req)
	if err != nil {
		return JobInfo{}, false, st, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > policy.Max {
				return JobInfo{}, false, st, lastErr
			}
			st.retries++
			time.Sleep(policy.Backoff(attempt-1, rng))
		}
		resp, err := client.Post(target+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err // transport error: server may be restarting
			continue
		}
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			var info JobInfo
			err := json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				return JobInfo{}, false, st, err
			}
			return info, info.Cached, st, nil
		}
		st.non2xx++
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		lastErr = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests {
			return JobInfo{}, false, st, lastErr // permanent: bad request etc.
		}
	}
}

// pollJob polls the job to a terminal state. Transport errors and 5xx
// statuses are tolerated with the retry policy's capped backoff (the
// server may be restarting mid-poll); outage reports whether any were
// seen, so the caller can count the job as recovered.
func pollJob(client *http.Client, target, id string, policy RetryPolicy, rng *rand.Rand) (info JobInfo, outage bool, err error) {
	backoff := 5 * time.Millisecond
	consecutiveErrs := 0
	for {
		resp, gerr := client.Get(target + "/jobs/" + id)
		if gerr != nil || resp.StatusCode >= 500 {
			if gerr == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}
			outage = true
			consecutiveErrs++
			// Give a restarting server policy.Max+1 windows of the capped
			// backoff before declaring the job lost.
			if consecutiveErrs > 8*(policy.Max+1) {
				if gerr == nil {
					gerr = fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
				}
				return JobInfo{}, outage, gerr
			}
			time.Sleep(policy.Backoff(consecutiveErrs-1, rng))
			continue
		}
		consecutiveErrs = 0
		derr := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// The job vanished (evicted, or acked but lost — the chaos
			// suite proves the latter cannot happen for durable acks).
			return JobInfo{}, outage, fmt.Errorf("GET /jobs/%s: gone", id)
		}
		if derr != nil {
			return JobInfo{}, outage, derr
		}
		if info.State.terminal() {
			return info, outage, nil
		}
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}
