package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
)

func walRec(typ, id string) walRecord {
	return walRecord{Type: typ, ID: id, Time: time.Unix(1700000000, 12345).UTC()}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Netlist: "x", Format: "blif", Flow: "resyn"}
	recs := []walRecord{
		{Type: "submitted", ID: "a", Time: time.Unix(1, 0).UTC(), Req: &req},
		{Type: "running", ID: "a", Time: time.Unix(2, 0).UTC()},
		{Type: "done", ID: "a", Time: time.Unix(3, 0).UTC(), Started: time.Unix(2, 0).UTC(),
			Result: &JobResult{Regs: 3, Clk: 1.5, Verify: "exact"}, Netlist: ".model m\n.end\n", Attempts: 1, Events: 7},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Records(); got != 3 {
		t.Fatalf("Records() = %d, want 3", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, got, dropped, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 0 || dropped != 0 || len(got) != 3 {
		t.Fatalf("loadLog: snap=%d recs=%d dropped=%d", len(snap), len(got), dropped)
	}
	if got[2].Result == nil || got[2].Result.Regs != 3 || got[2].Netlist != ".model m\n.end\n" {
		t.Fatalf("terminal record did not round-trip: %+v", got[2])
	}
	if !got[0].Time.Equal(recs[0].Time) {
		t.Fatalf("timestamp did not round-trip: %v != %v", got[0].Time, recs[0].Time)
	}
}

func TestWALTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := w.Append(walRec("submitted", id)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// A crash mid-write leaves a torn final line.
	path := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"type":"submitted","id":"c"`) // no newline, bad crc
	f.Close()

	_, recs, dropped, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || dropped != 1 {
		t.Fatalf("recs=%d dropped=%d, want 2/1", len(recs), dropped)
	}
}

func TestWALCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := w.Append(walRec("submitted", id)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Flip one byte inside the middle record's JSON: its CRC breaks, and
	// everything after the corruption is untrusted.
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x20
	lines[1] = string(mid)
	if err := os.WriteFile(filepath.Join(dir, walFileName), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, dropped, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" || dropped != 2 {
		t.Fatalf("recs=%d dropped=%d first=%q, want 1/2/a", len(recs), dropped, recs[0].ID)
	}
}

func TestWALCrashDiscardsUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	// A sync stall keeps appended bytes unsynced long enough for Crash to
	// catch them in flight.
	stall := &stubChaos{syncStall: 50 * time.Millisecond}
	w, err := openWAL(dir, stall)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec("submitted", "durable")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// This append stalls before its fsync; Crash interrupts it.
		w.Append(walRec("submitted", "lost"))
	}()
	time.Sleep(10 * time.Millisecond) // let the append hit the file
	w.Crash()
	wg.Wait()

	_, recs, _, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == "lost" {
			t.Fatal("unsynced record survived the crash")
		}
	}
	if len(recs) != 1 || recs[0].ID != "durable" {
		t.Fatalf("recs=%v, want just the durable one", recs)
	}
}

func TestWALRotateAndFoldCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Netlist: "x", Format: "blif", Flow: "resyn"}
	w.Append(walRecord{Type: "submitted", ID: "a", Time: time.Unix(1, 0).UTC(), Req: &req})
	w.Append(walRecord{Type: "done", ID: "a", Time: time.Unix(2, 0).UTC(), Started: time.Unix(1, 0).UTC(),
		Result: &JobResult{Regs: 2, Verify: "skipped"}, Netlist: "n", Attempts: 1})

	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("fresh segment has %d records", w.Records())
	}
	// Appends after rotation land in the new segment.
	w.Append(walRecord{Type: "submitted", ID: "b", Time: time.Unix(3, 0).UTC(), Req: &req})

	// Fold the sealed segment (what foldSealed does).
	snap, _, _, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealed, _, err := readSegment(filepath.Join(dir, walOldName))
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 {
		t.Fatalf("sealed segment has %d records, want 2", len(sealed))
	}
	states, order := foldLog(snap, sealed)
	if err := writeSnapshot(dir, orderedSnap(states, order)); err != nil {
		t.Fatal(err)
	}

	// Crash window: the sealed segment still exists alongside the new
	// snapshot. Replay must be idempotent — same state either way.
	checkState := func(label string) {
		t.Helper()
		snap, recs, _, err := loadLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		states, order := foldLog(snap, recs)
		if len(order) != 2 {
			t.Fatalf("%s: %d jobs, want 2", label, len(order))
		}
		a, b := states["a"], states["b"]
		if a == nil || a.State != StateDone || a.Result == nil || a.Result.Regs != 2 {
			t.Fatalf("%s: job a = %+v", label, a)
		}
		if b == nil || b.State != StateQueued {
			t.Fatalf("%s: job b = %+v", label, b)
		}
	}
	checkState("sealed segment present")
	w.removeSealed()
	checkState("sealed segment removed")
	w.Close()
}

func TestWALWriteErrorRefusesAppend(t *testing.T) {
	dir := t.TempDir()
	chaos := &stubChaos{writeErrs: 1}
	w, err := openWAL(dir, chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(walRec("submitted", "a")); err == nil {
		t.Fatal("append with injected write error must fail")
	}
	if err := w.Append(walRec("submitted", "b")); err != nil {
		t.Fatalf("append after the fault: %v", err)
	}
	_, recs, _, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("refused append left a trace: %+v", recs)
	}
}

// stubChaos is a minimal Chaos for targeted WAL tests.
type stubChaos struct {
	mu        sync.Mutex
	writeErrs int
	syncStall time.Duration
}

func (c *stubChaos) WALWriteErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeErrs > 0 {
		c.writeErrs--
		return os.ErrInvalid
	}
	return nil
}

func (c *stubChaos) WALSyncStall() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncStall
}

func (c *stubChaos) JobFault(string) guard.Fault   { return guard.FaultNone }
func (c *stubChaos) JobDelay(string) time.Duration { return 0 }

// TestWALCloseAcksStalledAppend closes the log while an append is stalled
// between its write and its fsync. Close fsyncs the append's bytes itself,
// so the append must be acknowledged durable (nil error) and replay.
func TestWALCloseAcksStalledAppend(t *testing.T) {
	dir := t.TempDir()
	chaos := &stubChaos{syncStall: 300 * time.Millisecond}
	w, err := openWAL(dir, chaos)
	if err != nil {
		t.Fatal(err)
	}
	appendErr := make(chan error, 1)
	go func() { appendErr <- w.Append(walRec("submitted", "a")) }()
	time.Sleep(50 * time.Millisecond) // let the append write and stall
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-appendErr; err != nil {
		t.Fatalf("append raced by Close must succeed (its bytes were fsynced by Close): %v", err)
	}
	_, recs, _, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("acked record must replay: %+v", recs)
	}
}

// TestWALAckedAppendsAreDurable runs concurrent appends through a slow
// disk and crashes the log mid-run: replay must return exactly the records
// whose Append returned nil — every acknowledged record survives, and no
// refused one does.
func TestWALAckedAppendsAreDurable(t *testing.T) {
	const goroutines, perG, crashAfter = 8, 50, 100
	dir := t.TempDir()
	w, err := openWAL(dir, &stubChaos{syncStall: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		acked   = map[string]bool{}
		refused int
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				err := w.Append(walRec("submitted", id))
				mu.Lock()
				if err == nil {
					acked[id] = true
				} else {
					refused++
				}
				crash := err == nil && len(acked) == crashAfter
				mu.Unlock()
				if crash {
					// Other appends are stalled between write and fsync.
					w.Crash()
				}
			}
		}(g)
	}
	wg.Wait()

	if refused == 0 {
		t.Fatal("Crash landed after the last append; the run proves nothing")
	}
	_, recs, _, err := loadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[string]bool{}
	for _, r := range recs {
		if !acked[r.ID] {
			t.Errorf("record %s replays but its Append failed", r.ID)
		}
		replayed[r.ID] = true
	}
	for id := range acked {
		if !replayed[id] {
			t.Errorf("acknowledged record %s lost by the crash", id)
		}
	}
	if len(recs) != len(acked) {
		t.Fatalf("replayed %d records, %d acknowledged", len(recs), len(acked))
	}
}

// TestFoldLogEvictThenResubmitNoDuplicate replays evict-then-resubmit of
// the same id: the fold must emit the job exactly once, in its new
// position, not once per stale order entry.
func TestFoldLogEvictThenResubmitNoDuplicate(t *testing.T) {
	req := Request{Netlist: "x", Format: "blif", Flow: "resyn"}
	recs := []walRecord{
		{Type: "submitted", ID: "a", Time: time.Unix(1, 0).UTC(), Req: &req},
		{Type: "submitted", ID: "b", Time: time.Unix(2, 0).UTC(), Req: &req},
		{Type: "done", ID: "a", Time: time.Unix(3, 0).UTC()},
		{Type: "evicted", ID: "a", Time: time.Unix(4, 0).UTC(), Reason: "ttl"},
		{Type: "submitted", ID: "a", Time: time.Unix(5, 0).UTC(), Req: &req},
	}
	states, order := foldLog(nil, recs)
	if len(states) != 2 {
		t.Fatalf("states = %d, want 2", len(states))
	}
	snap := orderedSnap(states, order)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2 (duplicate from stale order?): %+v", len(snap), snap)
	}
	if snap[0].ID != "b" || snap[1].ID != "a" {
		t.Fatalf("resubmitted job must take its new position: got [%s %s]", snap[0].ID, snap[1].ID)
	}
	if snap[1].State != StateQueued {
		t.Fatalf("resubmitted job state = %s, want %s", snap[1].State, StateQueued)
	}
}
