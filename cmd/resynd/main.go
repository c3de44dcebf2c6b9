// Command resynd serves the resynthesis flows over HTTP: submit a netlist
// and a flow name, follow per-pass progress live over SSE, and scrape
// Prometheus metrics. Identical submissions are content-addressed, so
// repeats are answered from the job cache. -workers sets how many jobs run
// at once; the parallel passes inside each job use every core, and a
// request carries no width of its own (a "workers" field from older
// clients is ignored).
//
// With -data-dir the service is crash-safe: every job transition is a
// CRC-checked record in an append-only log, fsynced on every append, and
// a restart replays it — finished jobs come back as cache entries,
// interrupted ones re-run. SIGTERM drains gracefully: new submissions get
// 503 + Retry-After, in-flight jobs finish (up to -drain-timeout), the log
// is synced, and the process exits 0.
//
// Usage:
//
//	resynd [-addr :8080] [-workers N] [-queue N] [-job-timeout 5m]
//	       [-timeout 1m] [-pass-timeout 30s] [-debug]
//	       [-data-dir DIR] [-drain-timeout 30s] [-max-jobs N] [-job-ttl D] [-retries N]
//	       [-sweep]
//
//	resynd -loadgen [-target http://host:8080] [-qps 2] [-duration 10s]
//	       [-circuits bbtas,s27,ex6] [-flow resyn] [-loadgen-verify] [-out BENCH_serve.json]
//	       [-loadgen-restart]
//
// With -loadgen and no -target, an in-process server is booted on an
// ephemeral port and torn down after the run, so a single command produces
// a self-contained BENCH_serve.json. -loadgen-restart runs the replay
// twice against the same -data-dir with a server restart in between; the
// report then carries both cache hit rates, showing how much of the cache
// the durable log preserved.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/guard"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (<=0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued jobs before submissions shed with 503")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "wall-clock budget per job, flows + verification (0 = unbounded)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow within a job (0 = unbounded)")
	passTimeout := flag.Duration("pass-timeout", 0, "wall-clock budget per pass within a flow (0 = unbounded)")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "durable job log directory (empty = in-memory only, no crash recovery)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before exiting")
	maxJobs := flag.Int("max-jobs", 0, "evict least-recently-used finished jobs past this count (0 = unbounded)")
	jobTTL := flag.Duration("job-ttl", 0, "evict finished jobs this long after completion (0 = keep)")
	retries := flag.Int("retries", serve.DefaultRetryPolicy.Max, "retries for transiently failed jobs (deadline, contained panic)")
	sweepOn := flag.Bool("sweep", false, "default every request to SAT-based sequential sweeping (folded into the job content address)")
	version := flag.Bool("version", false, "print version and exit")

	loadgen := flag.Bool("loadgen", false, "run the load generator instead of serving")
	target := flag.String("target", "", "loadgen: base URL of a running resynd (empty = boot an in-process server)")
	qps := flag.Float64("qps", 2, "loadgen: submissions per second")
	duration := flag.Duration("duration", 10*time.Second, "loadgen: submission window")
	circuits := flag.String("circuits", "", "loadgen: comma-separated bench circuits (default bbtas,s27,ex6)")
	flow := flag.String("flow", "resyn", "loadgen: flow submitted with every request")
	lgVerify := flag.Bool("loadgen-verify", false, "loadgen: request verification on every job")
	lgRestart := flag.Bool("loadgen-restart", false, "loadgen: run the replay twice with a server restart in between (requires in-process server + -data-dir)")
	out := flag.String("out", "BENCH_serve.json", "loadgen: output report file")
	flag.Parse()

	if *version {
		fmt.Println("resynd", buildinfo.Version())
		return
	}
	cfg := serve.Config{
		Workers: *workers,
		Queue:   *queue,
		Budget:  guard.Budget{Job: *jobTimeout, Flow: *timeout, Pass: *passTimeout},
		Sweep:   *sweepOn,
		Version: buildinfo.Version(),
		DataDir: *dataDir,
		MaxJobs: *maxJobs,
		JobTTL:  *jobTTL,
		Retry:   serve.RetryPolicy{Max: *retries},
	}

	if *loadgen {
		if err := runLoadgen(cfg, *target, *qps, *duration, *circuits, *flow, *lgVerify, *lgRestart, *out, *debug); err != nil {
			fatal(err)
		}
		return
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		fmt.Printf("resynd: recovered job log: %s\n", s.Recovery())
	}
	stopSampler := s.Registry().StartRuntimeSampler(5 * time.Second)
	defer stopSampler()

	srv := &http.Server{Addr: *addr, Handler: s.Handler(*debug)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("resynd %s listening on %s (workers=%d queue=%d data-dir=%q debug=%v)\n",
		buildinfo.Version(), *addr, *workers, *queue, *dataDir, *debug)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			s.Close()
			fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: refuse new submissions (503 + Retry-After) while
		// the listener is still up so load balancers see the refusals, let
		// SSE subscribers get their shutdown frame, finish in-flight jobs,
		// sync the log, exit 0.
		fmt.Println("resynd: draining (SIGTERM)")
		s.StartDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.Shutdown(drainCtx)
		if err := s.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "resynd: drain timeout: %v (log synced, interrupted jobs will re-run on next boot)\n", err)
		} else {
			fmt.Println("resynd: drained cleanly")
		}
	}
	s.Close()
}

// runLoadgen replays benchmark traffic against target (or an in-process
// server when target is empty) and writes the bench_serve/v2 report. With
// restart, the replay runs twice against the same data dir with a full
// server restart in between; the final report's cache_hit_rate is the
// post-restart phase and cache_hit_rate_pre_restart the first phase, so
// the artifact shows the durable log preserving the result cache.
func runLoadgen(cfg serve.Config, target string, qps float64, duration time.Duration, circuits, flow string, verify, restart bool, out string, debug bool) error {
	var names []string
	if circuits != "" {
		for _, n := range strings.Split(circuits, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if restart && target != "" {
		return errors.New("loadgen: -loadgen-restart needs the in-process server (drop -target)")
	}
	if restart && cfg.DataDir == "" {
		return errors.New("loadgen: -loadgen-restart needs -data-dir (nothing survives a restart without the job log)")
	}

	load := func(target string) (*serve.LoadReport, error) {
		return serve.RunLoad(serve.LoadConfig{
			Target:   target,
			QPS:      qps,
			Duration: duration,
			Circuits: names,
			Flow:     flow,
			Verify:   verify,
			Log:      os.Stderr,
		})
	}

	var rep *serve.LoadReport
	if target != "" {
		var err error
		if rep, err = load(target); err != nil {
			return err
		}
	} else {
		phases := 1
		if restart {
			phases = 2
		}
		var pre float64
		for phase := 1; phase <= phases; phase++ {
			s, err := serve.New(cfg)
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				s.Close()
				return err
			}
			srv := &http.Server{Handler: s.Handler(debug)}
			go srv.Serve(ln)
			url := "http://" + ln.Addr().String()
			if phase == 1 {
				fmt.Printf("resynd loadgen: in-process server at %s\n", url)
			} else {
				fmt.Printf("resynd loadgen: restarted at %s (%s)\n", url, s.Recovery())
			}
			rep, err = load(url)
			srv.Close()
			s.Close()
			if err != nil {
				return err
			}
			if phase == 1 && restart {
				pre = rep.CacheHitRate
			}
		}
		if restart {
			rep.CacheHitRatePreRestart = pre
		}
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d jobs, p50 %.1fms p99 %.1fms, %.2f jobs/s, cache hit rate %.2f\n",
		out, rep.Completed, rep.LatencyMsP50, rep.LatencyMsP99, rep.JobsPerSec, rep.CacheHitRate)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resynd:", err)
	os.Exit(1)
}
