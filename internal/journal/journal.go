// Package journal is the sweep service's durable job journal: an
// fsync'd, append-only write-ahead log that makes crash recovery
// *exact* instead of best-effort. The manager logs three things as
// they happen — a job's canonical spec on submission, each completed
// point row as the result stream advances, and the terminal state on
// done/cancel/fail — and a restarted server replays the log, re-serves
// every finished point from its logged row, and re-executes only the
// remainder. Because the simulator's determinism contract makes a
// canonical spec name exactly one output, the recovered table is
// byte-identical to the one an uninterrupted run would have produced;
// the journal never has to capture in-flight simulator state, only
// results that are already final.
//
// # On-disk format
//
// A journal directory holds a single log file, sweep.wal:
//
//	magic "IWJ1\n"
//	record*
//
// where each record is framed as
//
//	u32le payload length | u32le CRC-32C of payload | payload (JSON)
//
// The CRC covers only the payload; the length field is bounded by
// MaxRecord, so a corrupt length cannot force a huge allocation. On
// open, the file is scanned front to back and truncated at the first
// frame that is short (a torn tail from a crash mid-append) or fails
// its CRC — everything before that offset is intact by construction of
// the append path, and everything after it is unreachable garbage.
// Truncation is safe precisely because of the exactness argument
// above: a lost point row only costs re-executing that point, it can
// never change the answer.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// magic identifies a journal file (Idle Wave Journal, format 1).
const magic = "IWJ1\n"

// FileName is the log file's name inside a journal directory.
const FileName = "sweep.wal"

// MaxRecord bounds a single record's payload; larger length fields are
// treated as corruption. Spec documents and point rows are small, so
// 16 MiB is far above any legitimate record.
const MaxRecord = 16 << 20

// Kind discriminates journal records.
type Kind string

const (
	// KindSubmit opens a job: its id, canonical spec hash, canonical
	// spec document, table header and total point count.
	KindSubmit Kind = "submit"
	// KindPoint records one completed point row (index, labels,
	// values). Rows are appended in strictly increasing index order per
	// job — the manager journals from the result stream's watermark.
	KindPoint Kind = "point"
	// KindPointFailed records a point that failed permanently after its
	// retry budget; the job's table omits the row.
	KindPointFailed Kind = "point_failed"
	// KindDone closes a job that finished (possibly degraded: Failed
	// carries the permanently failed point count).
	KindDone Kind = "done"
	// KindFailed closes a job that failed as a whole (e.g. its deadline
	// expired).
	KindFailed Kind = "failed"
	// KindCancelled closes a job cancelled by a client. Shutdown does
	// NOT write this record: jobs interrupted by process death stay
	// open in the log and resume on restart.
	KindCancelled Kind = "cancelled"
)

// Record is one journal entry. Which fields are meaningful depends on
// Kind; unused fields stay at their zero values and are omitted from
// the encoding.
type Record struct {
	Kind Kind   `json:"kind"`
	Job  string `json:"job"`

	// Submit fields.
	Hash   string          `json:"hash,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Header []string        `json:"header,omitempty"`
	Total  int             `json:"total,omitempty"`

	// Point / point_failed fields.
	Index  int      `json:"index,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Values Floats   `json:"values,omitempty"`

	// Failure fields (point_failed / failed / cancelled / done).
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Failed is the permanently failed point count on a KindDone record
	// of a degraded job.
	Failed int `json:"failed,omitempty"`
}

// Floats is a []float64 that round-trips NaN and ±Inf through JSON.
// The simulator's metrics legitimately produce non-finite values (a
// fit parameter with too little signal is NaN), and encoding/json
// rejects those outright — which would silently drop the row from the
// log and force an unnecessary re-execution on every recovery. Here
// they encode as the strings "NaN", "+Inf" and "-Inf" instead.
type Floats []float64

// MarshalJSON renders finite values as numbers and non-finite ones as
// quoted sentinels.
func (f Floats) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 2+16*len(f))
	buf = append(buf, '[')
	for i, v := range f {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch {
		case math.IsNaN(v):
			buf = append(buf, `"NaN"`...)
		case math.IsInf(v, 1):
			buf = append(buf, `"+Inf"`...)
		case math.IsInf(v, -1):
			buf = append(buf, `"-Inf"`...)
		default:
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON accepts numbers and the sentinel strings.
func (f *Floats) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Floats, len(raw))
	for i, r := range raw {
		var s string
		if err := json.Unmarshal(r, &s); err == nil {
			switch s {
			case "NaN":
				out[i] = math.NaN()
			case "+Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("journal: value %d: unknown float sentinel %q", i, s)
			}
			continue
		}
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return fmt.Errorf("journal: value %d: %w", i, err)
		}
	}
	*f = out
	return nil
}

// terminal reports whether the record closes its job.
func (r Record) terminal() bool {
	return r.Kind == KindDone || r.Kind == KindFailed || r.Kind == KindCancelled
}

// Options tunes a journal's append behavior.
type Options struct {
	// SyncPoints selects fsync-per-point-record. Submit and terminal
	// records are always synced — a job's existence and its settlement
	// must survive a crash — but point rows are individually
	// dispensable (a lost row re-executes on recovery, byte-identically)
	// so high-throughput deployments may trade them for fewer fsyncs.
	// Point rows are still flushed by the next synced record and on
	// Close.
	SyncPoints bool
	// FailWrite, when non-nil, is consulted with the 1-based sequence
	// number of every append before any bytes are written; a non-nil
	// return aborts the append with that error. This is the chaos
	// harness's injection point for journal I/O faults — because the
	// check runs before the write, an injected failure never tears the
	// log, exactly like an EIO caught by the kernel before the blocks
	// hit the disk.
	FailWrite func(seq int) error
}

// crcTable is the Castagnoli polynomial table used for record CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open, appendable log. Append is safe for concurrent
// use; replayed records are returned once, by Open.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	off  int64 // end of the last good record; appends start here
	seq  int
	opts Options
	path string
	sync func() error // f.Sync; every fsync goes through it, so a test can count them
}

// Open creates dir if needed, opens (or creates) its log file, replays
// every intact record and truncates any torn or corrupt tail, then
// returns the journal positioned for appends plus the replayed
// records. Calling Open again on the same directory after Close yields
// the same records plus anything appended since — replay is a pure
// read and is idempotent.
func Open(dir string, opts Options) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, opts: opts, path: path, sync: f.Sync}
	recs, err := j.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recs, nil
}

// replay scans the file, validates framing and CRCs, truncates the
// tail at the first bad frame and leaves the journal positioned at the
// end of the last good record.
func (j *Journal) replay() ([]Record, error) {
	info, err := j.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if info.Size() == 0 {
		// Fresh file: stamp the magic and sync it.
		if _, err := j.f.WriteAt([]byte(magic), 0); err != nil {
			return nil, fmt.Errorf("journal: writing magic: %w", err)
		}
		if err := j.sync(); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.off = int64(len(magic))
		return nil, nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(io.NewSectionReader(j.f, 0, int64(len(magic))), head); err != nil || string(head) != magic {
		return nil, fmt.Errorf("journal: %s is not a journal file (bad magic)", j.path)
	}

	var (
		recs  []Record
		off   = int64(len(magic))
		frame [8]byte
	)
	for {
		n, err := j.f.ReadAt(frame[:], off)
		if err == io.EOF && n == 0 {
			break // clean end
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("journal: reading %s: %w", j.path, err)
		}
		if n < len(frame) {
			break // torn frame header
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 || length > MaxRecord {
			break // corrupt length
		}
		payload := make([]byte, length)
		pn, err := j.f.ReadAt(payload, off+int64(len(frame)))
		if (err != nil && err != io.EOF) || pn < int(length) {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // framing intact but not a record: treat as corruption
		}
		recs = append(recs, rec)
		off += int64(len(frame)) + int64(length)
	}
	if off < info.Size() {
		// Torn or corrupt tail: cut it off so future appends extend a
		// well-formed log.
		if err := j.f.Truncate(off); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", j.path, err)
		}
		if err := j.sync(); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	j.off = off
	j.seq = len(recs)
	return recs, nil
}

// Append writes one record, fsyncing according to the record kind and
// Options.SyncPoints. On any error the file is restored to the end of
// the last good record, so a failed append never leaves a torn frame
// for the next one to extend.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	if j.opts.FailWrite != nil {
		if err := j.opts.FailWrite(j.seq); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	buf := append(frame[:], payload...)
	if _, err := j.f.WriteAt(buf, j.off); err != nil {
		// A partial write may have torn the tail; cut back to the last
		// good record so the log stays well-formed.
		_ = j.f.Truncate(j.off)
		return fmt.Errorf("journal: %w", err)
	}
	j.off += int64(len(buf))
	if rec.Kind != KindPoint || j.opts.SyncPoints {
		if err := j.sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// JobState is the per-job digest Reduce builds from a record stream.
type JobState struct {
	// Submit is the job's opening record.
	Submit Record
	// Points maps completed point indexes to their rows.
	Points map[int]Record
	// FailedPoints holds point_failed records in log order.
	FailedPoints []Record
	// Terminal is the closing record, nil while the job is open.
	Terminal *Record
}

// Reduce folds a replayed record stream into per-job state, in
// submission order. Records for unknown jobs (whose submit record was
// lost to tail truncation) and duplicate point indexes (possible after
// a resume re-logged a row) are ignored — reduction is idempotent, so
// replaying a log twice, or a log that partially overlaps itself,
// yields the same state.
func Reduce(recs []Record) ([]*JobState, error) {
	byJob := make(map[string]*JobState)
	var order []*JobState
	for _, rec := range recs {
		if rec.Kind == KindSubmit {
			if rec.Job == "" {
				return nil, fmt.Errorf("journal: submit record without a job id")
			}
			if _, dup := byJob[rec.Job]; dup {
				continue // idempotence: keep the first submission
			}
			js := &JobState{Submit: rec, Points: make(map[int]Record)}
			byJob[rec.Job] = js
			order = append(order, js)
			continue
		}
		js, ok := byJob[rec.Job]
		if !ok || js.Terminal != nil {
			continue // unknown or already-closed job: tolerate
		}
		switch rec.Kind {
		case KindPoint:
			if _, dup := js.Points[rec.Index]; !dup {
				js.Points[rec.Index] = rec
			}
		case KindPointFailed:
			js.FailedPoints = append(js.FailedPoints, rec)
		case KindDone, KindFailed, KindCancelled:
			r := rec
			js.Terminal = &r
		default:
			return nil, fmt.Errorf("journal: unknown record kind %q", rec.Kind)
		}
	}
	return order, nil
}
