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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("resynd", buildinfo.Version())
		return
	}
	s, err := serve.New(serve.Config{
		Workers: *workers,
		Queue:   *queue,
		Budget:  guard.Budget{Job: *jobTimeout, Flow: *timeout, Pass: *passTimeout},
		Version: buildinfo.Version(),
		DataDir: *dataDir,
		MaxJobs: *maxJobs,
		JobTTL:  *jobTTL,
		Retry:   serve.RetryPolicy{Max: *retries},
	})
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resynd:", err)
	os.Exit(1)
}
