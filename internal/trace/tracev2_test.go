package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleRecorded builds a small valid trace with awkward float values
// (sums of draws, subnormals-adjacent magnitudes) to exercise the
// JSON round trip's exactness.
func sampleRecorded() Recorded {
	exec := [][]float64{
		{3.0000000000000004e-3, 1.5e-3, 2.9999999999999997e-3},
		{4.2e-3, 0, 1e-12},
	}
	delay := [][]float64{
		{0, 15e-3, 0},
		{0, 0, 0},
	}
	ns := [][]float64{
		{1.2345678901234567e-5, 0, 0},
		{0, 9.87654321e-4, 0},
	}
	end := [][]float64{
		{3.1e-3, 19.6e-3, 22.6e-3},
		{4.2e-3, 19.6e-3, 22.6e-3},
	}
	return Recorded{
		Topology: "chain:2", Machine: "emmy", Workload: "bulk:2",
		Seed: 42, Ranks: 2, Steps: 3, Bytes: 8192, TexecNS: 3_000_000,
		Exact: true, Exec: exec, Delay: delay, Noise: ns, StepEnd: end,
	}
}

func encode(t *testing.T, rec Recorded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecorded(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordedRoundTrip checks write→read reproduces every field and
// every float64 bit-exactly.
func TestRecordedRoundTrip(t *testing.T) {
	rec := sampleRecorded()
	got, err := ReadRecorded(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip mismatch:\ngot  %#v\nwant %#v", got, rec)
	}
	for i := range rec.Exec {
		for s := range rec.Exec[i] {
			if math.Float64bits(got.Exec[i][s]) != math.Float64bits(rec.Exec[i][s]) {
				t.Fatalf("exec[%d][%d] not bit-identical", i, s)
			}
		}
	}
}

// TestRecordedNoStepEnd checks the optional StepEnd matrix stays
// absent when unset.
func TestRecordedNoStepEnd(t *testing.T) {
	rec := sampleRecorded()
	rec.StepEnd = nil
	got, err := ReadRecorded(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if got.StepEnd != nil {
		t.Fatalf("StepEnd materialized from nothing: %v", got.StepEnd)
	}
}

// TestRecordedCorruption checks every corruption mode errors and never
// panics: bad magic, wrong version, torn tail, flipped payload byte,
// missing end record, oversized declared frame.
func TestRecordedCorruption(t *testing.T) {
	rec := sampleRecorded()
	full := encode(t, rec)

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte{}, full...)
		b[0] = 'X'
		if _, err := ReadRecorded(bytes.NewReader(b)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadRecorded(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input accepted")
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		for _, cut := range []int{len(full) - 1, len(full) - 9, len(full) / 2, len(MagicV2) + 3} {
			if _, err := ReadRecorded(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("missing end record", func(t *testing.T) {
		// Rebuild the stream without the final frame: walk the frames to
		// find the end record's offset.
		off := len(MagicV2)
		var last int
		for off < len(full) {
			last = off
			n := binary.LittleEndian.Uint32(full[off:])
			off += 8 + int(n)
		}
		if _, err := ReadRecorded(bytes.NewReader(full[:last])); err == nil {
			t.Fatal("stream without end record accepted")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := append([]byte{}, full...)
		b[len(MagicV2)+8+2] ^= 0x40 // inside the header payload
		if _, err := ReadRecorded(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("flipped byte: got %v, want CRC mismatch", err)
		}
	})
	t.Run("oversized frame length", func(t *testing.T) {
		b := append([]byte{}, []byte(MagicV2)...)
		var head [8]byte
		binary.LittleEndian.PutUint32(head[:], MaxRecordV2+1)
		b = append(b, head[:]...)
		if _, err := ReadRecorded(bytes.NewReader(b)); err == nil {
			t.Fatal("oversized frame length accepted")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := rec
		b := encode(t, bad)
		// Patch the version integer inside the header payload and fix the
		// CRC so only the version check can reject it.
		payloadStart := len(MagicV2) + 8
		n := binary.LittleEndian.Uint32(b[len(MagicV2):])
		payload := append([]byte{}, b[payloadStart:payloadStart+int(n)]...)
		patched := bytes.Replace(payload, []byte(`"version":2`), []byte(`"version":3`), 1)
		if bytes.Equal(patched, payload) {
			t.Fatal("test setup: version field not found")
		}
		var buf bytes.Buffer
		buf.WriteString(MagicV2)
		var head [8]byte
		binary.LittleEndian.PutUint32(head[0:], uint32(len(patched)))
		binary.LittleEndian.PutUint32(head[4:], crcOf(patched))
		buf.Write(head[:])
		buf.Write(patched)
		buf.Write(b[payloadStart+int(n):])
		if _, err := ReadRecorded(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("wrong version: got %v, want version error", err)
		}
	})
	t.Run("out-of-order ranks", func(t *testing.T) {
		swapped := rec
		// Swapping the rank IDs is invisible to Write (it renumbers), so
		// corrupt at the byte level: swap the two rank frames.
		b := encode(t, swapped)
		off := len(MagicV2)
		var frames [][]byte
		for off < len(b) {
			n := binary.LittleEndian.Uint32(b[off:])
			frames = append(frames, b[off:off+8+int(n)])
			off += 8 + int(n)
		}
		if len(frames) != 4 {
			t.Fatalf("expected 4 frames, got %d", len(frames))
		}
		var buf bytes.Buffer
		buf.WriteString(MagicV2)
		buf.Write(frames[0])
		buf.Write(frames[2]) // rank 1 first
		buf.Write(frames[1])
		buf.Write(frames[3])
		if _, err := ReadRecorded(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("out-of-order rank frames accepted")
		}
	})
}

func crcOf(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// TestRecordedValidate checks structural validation.
func TestRecordedValidate(t *testing.T) {
	cases := []func(*Recorded){
		func(r *Recorded) { r.Ranks = 0 },
		func(r *Recorded) { r.Bytes = 0 },
		func(r *Recorded) { r.Topology = "" },
		func(r *Recorded) { r.Exec = r.Exec[:1] },
		func(r *Recorded) { r.Noise[0] = r.Noise[0][:1] },
		func(r *Recorded) { r.Exec[1][2] = -1 },
		func(r *Recorded) { r.Delay[0][0] = math.NaN() },
		func(r *Recorded) { r.Noise[1][0] = math.Inf(1) },
	}
	for i, mutate := range cases {
		rec := sampleRecorded()
		mutate(&rec)
		if err := rec.Validate(); err == nil {
			t.Errorf("case %d validated, want error", i)
		}
	}
}

// TestImportCSV checks the external-log importer: header skipping,
// accumulation of duplicate cells, shape inference, error rows.
func TestImportCSV(t *testing.T) {
	in := "rank,step,phase_ns\n0,0,3000000\n0,1,1500000\n1,0,4200000\n1,1,100\n1,1,100\n"
	rec, err := ImportCSV(strings.NewReader(in), "chain:2", 8192)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ranks != 2 || rec.Steps != 2 {
		t.Fatalf("shape %dx%d, want 2x2", rec.Ranks, rec.Steps)
	}
	if rec.Exec[0][0] != 3e-3 || rec.Exec[0][1] != 1.5e-3 {
		t.Fatalf("rank 0 phases %v", rec.Exec[0])
	}
	if rec.Exec[1][1] != 200/1e9 {
		t.Fatalf("duplicate cells should accumulate, got %g", rec.Exec[1][1])
	}
	if rec.Exact {
		t.Fatal("imported logs must not claim exactness")
	}
	// The import must round-trip through the binary format.
	got, err := ReadRecorded(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatal("imported trace does not survive the binary round trip")
	}

	for _, bad := range []string{
		"",
		"0,0\n",
		"0,0,banana\n",
		"-1,0,100\n",
		"0,-1,100\n",
		"0,0,-100\n",
		"rank,step,phase_ns\n",
	} {
		if _, err := ImportCSV(strings.NewReader(bad), "chain:2", 8192); err == nil {
			t.Errorf("ImportCSV(%q) succeeded, want error", bad)
		}
	}
}

// FuzzReadRecorded checks the decoder never panics on arbitrary bytes
// and accepts only streams that re-encode to an equal value.
func FuzzReadRecorded(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(MagicV2))
	rec := sampleRecorded()
	var buf bytes.Buffer
	if err := WriteRecorded(&buf, rec); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3])
	mut := append([]byte{}, full...)
	mut[20] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadRecorded(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRecorded(&out, got); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		back, err := ReadRecorded(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace does not re-read: %v", err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatal("re-encode round trip not value-exact")
		}
	})
}
