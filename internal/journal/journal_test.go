package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleRecords is a small but representative log: one job that
// finishes cleanly, one that is still open (no terminal record).
func sampleRecords() []Record {
	return []Record{
		{Kind: KindSubmit, Job: "j000001", Hash: "abc123", Spec: json.RawMessage(`{"base":{"ranks":8}}`), Header: []string{"noise", "speed"}, Total: 2},
		{Kind: KindPoint, Job: "j000001", Index: 0, Labels: []string{"0"}, Values: []float64{1.5}},
		{Kind: KindPoint, Job: "j000001", Index: 1, Labels: []string{"0.02"}, Values: []float64{1.25}},
		{Kind: KindDone, Job: "j000001"},
		{Kind: KindSubmit, Job: "j000002", Hash: "def456", Spec: json.RawMessage(`{"base":{"ranks":16}}`), Header: []string{"noise", "speed"}, Total: 3},
		{Kind: KindPoint, Job: "j000002", Index: 0, Labels: []string{"0"}, Values: []float64{2}},
	}
}

func openAppend(t *testing.T, dir string, recs []Record) {
	t.Helper()
	j, replayed, err := Open(dir, Options{SyncPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	openAppend(t, dir, want)

	j, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// The journal keeps appending after a replay.
	if err := j.Append(Record{Kind: KindPoint, Job: "j000002", Index: 1, Labels: []string{"0.05"}, Values: []float64{3}}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDoubleReplay: replay is a pure read — two opens of the
// same directory return identical records, and reducing either stream
// yields the same state.
func TestJournalDoubleReplay(t *testing.T) {
	dir := t.TempDir()
	openAppend(t, dir, sampleRecords())

	j1, first, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()
	j2, second, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("double replay diverged:\n%+v\nvs\n%+v", first, second)
	}
	s1, err := Reduce(first)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Reduce(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("double replay reduced to different states")
	}
}

// TestJournalGolden pins the on-disk format: a committed fixture file
// must replay to exactly the known records. If the framing, magic or
// record encoding changes, this fails — bump the magic and write a
// migration instead of silently orphaning old journals.
func TestJournalGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Copy into a temp dir: Open may truncate, and must not touch the
	// committed fixture.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if want := sampleRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// Reduce digests the stream into per-job state: j000001 closed with
	// both points, j000002 open with one.
	jobs, err := Reduce(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("reduced to %d jobs, want 2", len(jobs))
	}
	if jobs[0].Terminal == nil || jobs[0].Terminal.Kind != KindDone || len(jobs[0].Points) != 2 {
		t.Fatalf("job 1 state: %+v", jobs[0])
	}
	if jobs[1].Terminal != nil || len(jobs[1].Points) != 1 {
		t.Fatalf("job 2 state: %+v", jobs[1])
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial frame; open
// must recover every complete record, truncate the tail, and leave the
// file appendable.
func TestJournalTornTail(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(full []byte, lastStart int) []byte
	}{
		{"mid-header", func(full []byte, lastStart int) []byte { return full[:lastStart+3] }},
		{"mid-payload", func(full []byte, lastStart int) []byte { return full[:lastStart+8+2] }},
		{"trailing-garbage", func(full []byte, _ int) []byte { return append(full, 0xde, 0xad, 0xbe) }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			recs := sampleRecords()
			openAppend(t, dir, recs)
			path := filepath.Join(dir, FileName)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lastStart := startOfLastRecord(t, full)
			if err := os.WriteFile(path, tear.cut(full, lastStart), 0o644); err != nil {
				t.Fatal(err)
			}

			j, got, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantLen := len(recs) - 1
			if tear.name == "trailing-garbage" {
				wantLen = len(recs)
			}
			if len(got) != wantLen {
				t.Fatalf("replayed %d records, want %d", len(got), wantLen)
			}
			if !reflect.DeepEqual(got, recs[:wantLen]) {
				t.Fatal("surviving records corrupted by truncation")
			}
			// Appends after truncation extend a clean log.
			if err := j.Append(Record{Kind: KindDone, Job: "j000002"}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, again, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if len(again) != wantLen+1 || again[wantLen].Kind != KindDone {
				t.Fatalf("post-truncation append lost: %+v", again)
			}
		})
	}
}

// TestJournalCRCCorrupt: a bit flip inside a record payload fails the
// CRC; the record and everything after it are truncated.
func TestJournalCRCCorrupt(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	openAppend(t, dir, recs)
	path := filepath.Join(dir, FileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := startOfLastRecord(t, full)
	full[lastStart+8] ^= 0xff // first payload byte of the last record
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	j, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(got) != len(recs)-1 || !reflect.DeepEqual(got, recs[:len(recs)-1]) {
		t.Fatalf("CRC corruption not truncated: got %d records", len(got))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(lastStart) {
		t.Fatalf("file is %d bytes, want truncated to %d", info.Size(), lastStart)
	}
}

// TestJournalBadMagic: a file that is not a journal is rejected, not
// silently truncated to nothing.
func TestJournalBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestJournalSyncCount pins what a job costs in fsyncs, which is the
// journal's overhead on a sweep: by default a job of n points syncs
// twice, once for its submit and once for its terminal record, and
// SyncPoints adds one sync per point row.
func TestJournalSyncCount(t *testing.T) {
	for _, n := range []int{0, 1, 16} {
		for _, syncPoints := range []bool{false, true} {
			j, _, err := Open(t.TempDir(), Options{SyncPoints: syncPoints})
			if err != nil {
				t.Fatal(err)
			}
			syncs := 0
			j.sync = func() error { syncs++; return j.f.Sync() }
			recs := []Record{{Kind: KindSubmit, Job: "j000001", Total: n}}
			for i := 0; i < n; i++ {
				recs = append(recs, Record{Kind: KindPoint, Job: "j000001", Index: i, Values: []float64{float64(i)}})
			}
			recs = append(recs, Record{Kind: KindDone, Job: "j000001"})
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			want := 2
			if syncPoints {
				want = n + 2
			}
			if syncs != want {
				t.Errorf("%d points, SyncPoints=%v: %d fsyncs, want %d", n, syncPoints, syncs, want)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestJournalWriteError: an injected append failure surfaces as an
// error but never tears the log — subsequent appends and replays see a
// consistent file missing only the failed record.
func TestJournalWriteError(t *testing.T) {
	dir := t.TempDir()
	fail := errors.New("injected: disk on fire")
	j, _, err := Open(dir, Options{
		SyncPoints: true,
		FailWrite: func(seq int) error {
			if seq == 2 {
				return fail
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()[:3]
	var errs int
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			if !errors.Is(err, fail) {
				t.Fatalf("unexpected append error: %v", err)
			}
			errs++
		}
	}
	j.Close()
	if errs != 1 {
		t.Fatalf("%d appends failed, want 1", errs)
	}
	j2, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	want := []Record{recs[0], recs[2]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log after injected failure:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestReduceIdempotent: duplicate points (a resume re-logging rows) and
// records for truncated-away jobs do not change the reduced state.
func TestReduceIdempotent(t *testing.T) {
	recs := sampleRecords()
	noisy := append([]Record{}, recs...)
	noisy = append(noisy, recs[5])                                           // duplicate point
	noisy = append(noisy, Record{Kind: KindPoint, Job: "j999999", Index: 0}) // orphan
	clean, err := Reduce(recs)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Reduce(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, dirty) {
		t.Fatal("reduction is not idempotent under duplicates/orphans")
	}
}

// TestReduceFailedPoints: point_failed records accumulate per job and a
// degraded done record closes it.
func TestReduceFailedPoints(t *testing.T) {
	recs := []Record{
		{Kind: KindSubmit, Job: "j1", Hash: "h", Total: 2},
		{Kind: KindPoint, Job: "j1", Index: 0, Values: []float64{1}},
		{Kind: KindPointFailed, Job: "j1", Index: 1, Error: "boom", Attempts: 4},
		{Kind: KindDone, Job: "j1", Failed: 1},
	}
	jobs, err := Reduce(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatal("want one job")
	}
	js := jobs[0]
	if len(js.FailedPoints) != 1 || js.FailedPoints[0].Error != "boom" || js.FailedPoints[0].Attempts != 4 {
		t.Fatalf("failed points: %+v", js.FailedPoints)
	}
	if js.Terminal == nil || js.Terminal.Failed != 1 {
		t.Fatalf("terminal: %+v", js.Terminal)
	}
}

// startOfLastRecord walks the frames to find the byte offset where the
// final record begins.
func startOfLastRecord(t *testing.T, full []byte) int {
	t.Helper()
	off := len(magic)
	last := off
	for off < len(full) {
		if off+8 > len(full) {
			t.Fatal("fixture has a torn frame already")
		}
		length := int(binary.LittleEndian.Uint32(full[off : off+4]))
		sum := binary.LittleEndian.Uint32(full[off+4 : off+8])
		payload := full[off+8 : off+8+length]
		if crc32.Checksum(payload, crcTable) != sum {
			t.Fatal("fixture record fails CRC")
		}
		last = off
		off += 8 + length
	}
	if off != len(full) {
		t.Fatal("fixture frames do not tile the file")
	}
	if !bytes.HasPrefix(full, []byte(magic)) {
		t.Fatal("fixture missing magic")
	}
	return last
}

// TestFloatsNonFinite: NaN and ±Inf metric values — legitimate
// simulator outputs — must survive the log round trip; plain
// encoding/json rejects them, which would silently drop rows.
func TestFloatsNonFinite(t *testing.T) {
	dir := t.TempDir()
	vals := Floats{math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25e-6}
	openAppend(t, dir, []Record{
		{Kind: KindSubmit, Job: "j1", Hash: "h", Spec: json.RawMessage(`{}`), Header: []string{"m"}, Total: 1},
		{Kind: KindPoint, Job: "j1", Index: 0, Labels: []string{"0"}, Values: vals},
	})
	j, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	got := recs[1].Values
	if len(got) != len(vals) {
		t.Fatalf("values %v, want %v", got, vals)
	}
	if !math.IsNaN(got[0]) || !math.IsInf(got[1], 1) || !math.IsInf(got[2], -1) {
		t.Errorf("non-finite values did not round-trip: %v", got)
	}
	if got[3] != 1.5 || got[4] != -2.25e-6 {
		t.Errorf("finite values corrupted: %v", got)
	}
	// Unknown sentinels are rejected, not guessed at.
	var f Floats
	if err := json.Unmarshal([]byte(`["Infinity"]`), &f); err == nil {
		t.Error("unknown sentinel accepted")
	}
}
