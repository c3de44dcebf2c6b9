package serve

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// StartDrain flips the server into draining mode: new submissions are
// refused with 503 + Retry-After, SSE subscribers receive a final
// `shutdown` frame and are disconnected, and in-flight jobs keep running.
// Idempotent. The HTTP front end calls it on SIGTERM before shutting its
// listener down, so load balancers see the refusals while existing
// connections finish.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully stops the server: drain (if not already draining),
// wait for queued and in-flight jobs up to the context deadline, then
// fsync and close the WAL. It reports nil when every job finished, or
// ctx.Err() when the deadline cut the wait short (the WAL is still synced
// with whatever was recorded, so an unfinished job replays on next boot).
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	stopJanitor(s)
	drained := s.pool.CloseWait(ctx)
	if s.wal != nil {
		s.wal.Close()
	}
	if !drained {
		return ctx.Err()
	}
	return nil
}

// Close keeps the historical blocking contract: drain with no deadline.
func (s *Server) Close() {
	s.Shutdown(context.Background())
}

// Crash simulates a kill -9 for the chaos harness: job execution is
// cancelled, the WAL discards everything past its last fsync (exactly the
// post-crash disk state), and nothing is flushed or drained. The server
// object is dead afterwards; recovery happens by New-ing a fresh server on
// the same DataDir.
func (s *Server) Crash() {
	if !s.crashed.CompareAndSwap(false, true) {
		return
	}
	s.draining.Store(true)
	s.baseCancel()
	stopJanitor(s)
	if s.wal != nil {
		s.wal.Crash()
	}
}

func stopJanitor(s *Server) {
	s.janitorOnce.Do(func() { close(s.janitorStop) })
	<-s.janitorDone
}

// janitor is the background retention loop: TTL eviction and WAL
// compaction on a coarse tick. LRU (MaxJobs) eviction additionally runs
// inline on every accepted submission, so the bound holds under bursts
// faster than the tick.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.evictExpired()
			s.maybeCompact()
		}
	}
}

// evictOverflow enforces MaxJobs: while the map is over budget, the least
// recently touched terminal job is evicted. Non-terminal jobs are never
// evicted, so a map full of active work is allowed to exceed the bound
// until jobs finish.
func (s *Server) evictOverflow() {
	max := s.cfg.MaxJobs
	if max <= 0 {
		return
	}
	for {
		s.mu.Lock()
		if len(s.jobs) <= max {
			s.mu.Unlock()
			return
		}
		victim := ""
		var oldest time.Time
		for id, j := range s.jobs {
			terminal, touched, _ := j.lruKey()
			if !terminal {
				continue
			}
			if victim == "" || touched.Before(oldest) {
				victim, oldest = id, touched
			}
		}
		if victim == "" {
			s.mu.Unlock()
			return // nothing evictable yet
		}
		s.removeLocked(victim)
		s.mu.Unlock()
		s.mEvictLRU.Inc()
		s.logRecord(walRecord{Type: "evicted", ID: victim, Time: time.Now(), Reason: "lru"})
	}
}

// evictExpired enforces JobTTL: terminal jobs older than the TTL are
// evicted in finish order.
func (s *Server) evictExpired() {
	ttl := s.cfg.JobTTL
	if ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-ttl)
	var victims []string
	s.mu.Lock()
	for id, j := range s.jobs {
		if terminal, _, finished := j.lruKey(); terminal && finished.Before(cutoff) {
			victims = append(victims, id)
		}
	}
	sort.Strings(victims) // deterministic record order
	for _, id := range victims {
		s.removeLocked(id)
	}
	s.mu.Unlock()
	for _, id := range victims {
		s.mEvictTTL.Inc()
		s.logRecord(walRecord{Type: "evicted", ID: id, Time: time.Now(), Reason: "ttl"})
	}
}

// removeLocked deletes id from the map and the order slice; the caller
// holds s.mu.
func (s *Server) removeLocked(id string) {
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// compactEvery is the number of log records that triggers a WAL
// compaction into a snapshot.
const compactEvery = 4096

// maybeCompact folds the log into a snapshot once it has accumulated
// compactEvery records, bounding both replay time and disk growth. The
// fold reads the sealed log segment — never the in-memory job map — so a
// record that was acknowledged but whose effect has not reached memory yet
// cannot be lost (see wal.Rotate / foldLog).
func (s *Server) maybeCompact() {
	if s.wal == nil {
		return
	}
	sealed := filepath.Join(s.cfg.DataDir, walOldName)
	if _, err := os.Stat(sealed); err == nil {
		// A previous fold failed after rotation; finish it before sealing
		// more records behind it.
		if s.foldSealed() != nil {
			return
		}
	}
	if s.wal.Records() < compactEvery {
		return
	}
	if err := s.wal.Rotate(); err != nil {
		return
	}
	if err := s.foldSealed(); err == nil {
		s.mCompact.Inc()
	}
}

// foldSealed merges the rotated segment into the snapshot and removes it.
func (s *Server) foldSealed() error {
	dir := s.cfg.DataDir
	snap, _, _, err := loadSnapshot(dir)
	if err != nil {
		return err
	}
	recs, _, err := readSegment(filepath.Join(dir, walOldName))
	if err != nil {
		return err
	}
	states, order := foldLog(snap, recs)
	if err := writeSnapshot(dir, orderedSnap(states, order)); err != nil {
		return err
	}
	s.wal.removeSealed()
	return nil
}
