package serve

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
)

// Chaos injects deterministic service-level faults into the serving layer.
// internal/faults.ServicePlan is the seeded implementation; a nil Chaos in
// Config disables injection. The interface lives on the consumer side,
// mirroring guard.Injector.
type Chaos interface {
	// WALWriteErr, when non-nil, fails the current WAL append (the
	// submission or terminal record is not made durable).
	WALWriteErr() error
	// WALSyncStall returns a delay to insert between an append's write
	// and its fsync (0: none): a slow disk.
	WALSyncStall() time.Duration
	// JobFault is consulted once per job attempt: guard.FaultPanic makes
	// the attempt panic (contained, classified transient, retried),
	// guard.FaultDeadline hands it an exhausted context.
	JobFault(id string) guard.Fault
	// JobDelay returns a slow-pass stall inserted before the attempt's
	// flow runs (0: none).
	JobDelay(id string) time.Duration
}

// The durable job log. Every state transition of every job is one
// append-only JSONL record in <dir>/wal.log:
//
//	<crc32c-hex> <json>\n
//
// where the checksum covers the JSON bytes, so a torn tail (crash mid
// write) or a flipped byte is detected and replay stops at the last intact
// record. Each Append writes its record and fsyncs it before returning, so
// an acknowledged record is durable; Crash truncates to the last
// successful fsync, as a kill -9 would.
//
// Compaction rotates the log (wal.log → wal.log.old), folds the rotated
// segment into <dir>/snapshot.json with the same replay function recovery
// uses, then deletes the segment. Folding from the log — never from the
// in-memory job map — means compaction cannot lose a record that was
// acknowledged but whose effect has not reached memory yet, and every
// intermediate crash state (segment present, snapshot old or new) replays
// to the same result because replay is idempotent.
const (
	walFileName  = "wal.log"
	walOldName   = "wal.log.old"
	snapFileName = "snapshot.json"
	snapSchema   = "resynd_snap/v1"

	// walMaxLineBytes caps one record line on replay. It must dominate the
	// largest record Append can produce, or an acked record would fail
	// recovery at the next boot: submitted records embed the request
	// netlist (≤ maxNetlistBytes, ≤ 6× after JSON escaping) and done
	// records the output netlist, so 128 MiB leaves ample headroom.
	walMaxLineBytes = 128 << 20
)

var errWALClosed = errors.New("serve: wal closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one JSONL line of the job log. Type selects which fields
// are meaningful.
type walRecord struct {
	// Type is submitted | running | requeued | done | failed | evicted.
	Type string    `json:"type"`
	ID   string    `json:"id"`
	Time time.Time `json:"time,omitempty"`
	// Req is the full request on submitted records, so replay can re-run
	// interrupted jobs from the log alone.
	Req *Request `json:"req,omitempty"`
	// Result and Netlist carry the verified output on done records, so the
	// content-addressed result cache survives restarts.
	Result  *JobResult `json:"result,omitempty"`
	Netlist string     `json:"netlist,omitempty"`
	Error   string     `json:"error,omitempty"`
	Class   string     `json:"class,omitempty"`
	// Attempts is the number of execution attempts a terminal record took.
	Attempts int `json:"attempts,omitempty"`
	// Events preserves the job's event count across recovery (the events
	// themselves are not persisted).
	Events int `json:"events,omitempty"`
	// Started rides on terminal records so a recovered job reports the
	// same timestamps it did before the crash.
	Started time.Time `json:"started,omitempty"`
	// Reason annotates evicted records ("lru" | "ttl").
	Reason string `json:"reason,omitempty"`
}

// snapFile is the compaction snapshot: the full job list in submission
// order, each entry a self-contained job state.
type snapFile struct {
	Schema string    `json:"schema"`
	Jobs   []snapJob `json:"jobs"`
}

type snapJob struct {
	ID       string     `json:"id"`
	Req      Request    `json:"req"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started,omitempty"`
	Finished time.Time  `json:"finished,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	Netlist  string     `json:"netlist,omitempty"`
	Error    string     `json:"error,omitempty"`
	Class    string     `json:"class,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Events   int        `json:"events,omitempty"`
}

type wal struct {
	dir   string
	chaos Chaos

	mu      sync.Mutex
	f       *os.File
	size    int64 // bytes written to the current segment
	synced  int64 // bytes covered by the last successful fsync
	records int   // records appended to the current segment
	closed  bool
}

// openWAL opens (creating if needed) the job log under dir.
func openWAL(dir string, chaos Chaos) (*wal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: wal open: %w", err)
	}
	size, err := f.Seek(0, 2) // append position
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{
		dir:    dir,
		chaos:  chaos,
		f:      f,
		size:   size,
		synced: size, // bytes read back from disk are durable by definition
	}
	return w, nil
}

func encodeRecord(rec walRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := crc32.Checksum(body, crcTable)
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x ", sum)...)
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses one WAL line, reporting an error for torn or corrupt
// records (bad framing, checksum mismatch, invalid JSON).
func decodeLine(line string) (walRecord, error) {
	var rec walRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("serve: wal record framing %q", truncateFor(line))
	}
	sumBytes, err := hex.DecodeString(line[:8])
	if err != nil {
		return rec, fmt.Errorf("serve: wal record checksum field: %w", err)
	}
	want := uint32(sumBytes[0])<<24 | uint32(sumBytes[1])<<16 | uint32(sumBytes[2])<<8 | uint32(sumBytes[3])
	body := []byte(line[9:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return rec, fmt.Errorf("serve: wal record crc mismatch (%08x != %08x)", got, want)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("serve: wal record json: %w", err)
	}
	return rec, nil
}

func truncateFor(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// Append durably logs rec: it returns nil only once an fsync covers the
// record, else the write or sync error.
func (w *wal) Append(rec walRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.chaos != nil {
		if ferr := w.chaos.WALWriteErr(); ferr != nil {
			return ferr
		}
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	w.size += int64(len(line))
	w.records++
	if w.chaos != nil {
		if d := w.chaos.WALSyncStall(); d > 0 {
			// A slow disk: the record sits written but unsynced, and
			// Close, Rotate, Crash or another append may run meanwhile.
			f, end := w.f, w.size
			w.mu.Unlock()
			time.Sleep(d)
			w.mu.Lock()
			switch {
			case w.f != f || w.synced >= end:
				return nil // Rotate, Close or a later append synced it
			case w.closed:
				return errWALClosed // Crash truncated it away
			}
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal sync: %w", err)
	}
	w.synced = w.size
	return nil
}

// Size reports bytes written to the current log segment.
func (w *wal) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records reports records appended to the current segment.
func (w *wal) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Close syncs outstanding bytes and closes the log. Idempotent. An append
// stalled before its fsync is covered by Close's sync and acknowledged.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if err == nil {
		w.synced = w.size
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a process kill for the chaos harness: bytes past the
// last successful fsync are discarded (truncated away), mirroring what the
// OS guarantees after a real kill -9, and the log is closed without a
// final sync. An append stalled before its fsync fails with errWALClosed.
func (w *wal) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.f.Truncate(w.synced)
	w.f.Close()
}

// Rotate seals the current segment: stalled appends are synced and
// acknowledged, wal.log is renamed to wal.log.old, and a fresh wal.log
// takes over. The caller folds the sealed segment into the snapshot and
// then removes it (removeSealed).
func (w *wal) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.size
	oldPath := filepath.Join(w.dir, walOldName)
	if err := os.Rename(filepath.Join(w.dir, walFileName), oldPath); err != nil {
		return err
	}
	nf, err := os.OpenFile(filepath.Join(w.dir, walFileName), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		// The log is sealed but no new segment could be created: restore
		// the old name so appends keep going to a valid file.
		os.Rename(oldPath, filepath.Join(w.dir, walFileName))
		return err
	}
	w.f.Close()
	w.f = nf
	w.size, w.synced, w.records = 0, 0, 0
	syncDir(w.dir)
	return nil
}

// removeSealed deletes the rotated segment once its records are folded
// into a durable snapshot.
func (w *wal) removeSealed() {
	os.Remove(filepath.Join(w.dir, walOldName))
	syncDir(w.dir)
}

// writeSnapshot atomically replaces snapshot.json with jobs: write to tmp,
// fsync, rename, fsync the directory.
func writeSnapshot(dir string, jobs []snapJob) error {
	data, err := json.Marshal(snapFile{Schema: snapSchema, Jobs: jobs})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, snapFileName+".tmp")
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = tf.Write(data); err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapFileName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// readSegment reads the intact prefix of one log segment, counting dropped
// (torn/corrupt) trailing lines. A missing file is an empty segment.
func readSegment(path string) (recs []walRecord, dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), walMaxLineBytes)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, derr := decodeLine(line)
		if derr != nil {
			// Torn or corrupt record: everything from here on is past the
			// last durable point of this segment — stop, count the rest.
			dropped++
			for sc.Scan() {
				dropped++
			}
			break
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return recs, dropped, nil
}

// loadSnapshot reads snapshot.json under dir; a missing file is an empty
// snapshot. The extra return values keep its signature parallel to
// loadLog for callers that only need the snapshot half.
func loadSnapshot(dir string) (snap []snapJob, recs []walRecord, dropped int, err error) {
	sdata, serr := os.ReadFile(filepath.Join(dir, snapFileName))
	if serr != nil {
		if errors.Is(serr, os.ErrNotExist) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, serr
	}
	var sf snapFile
	if jerr := json.Unmarshal(sdata, &sf); jerr != nil {
		return nil, nil, 0, fmt.Errorf("serve: snapshot corrupt: %w", jerr)
	}
	if sf.Schema != snapSchema {
		return nil, nil, 0, fmt.Errorf("serve: snapshot schema %q (want %s)", sf.Schema, snapSchema)
	}
	return sf.Jobs, nil, 0, nil
}

// loadLog reads the snapshot and every log segment under dir, in
// application order: snapshot state, then the sealed segment a crash may
// have left behind mid-compaction, then the current log. A missing
// directory or empty log is a clean empty state, not an error.
func loadLog(dir string) (snap []snapJob, recs []walRecord, dropped int, err error) {
	snap, _, _, err = loadSnapshot(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, name := range []string{walOldName, walFileName} {
		segRecs, segDropped, err := readSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, 0, err
		}
		recs = append(recs, segRecs...)
		dropped += segDropped
	}
	return snap, recs, dropped, nil
}
