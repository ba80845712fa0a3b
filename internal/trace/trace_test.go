package trace

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(3)
	r.Add(Exec, 0, 1, 0)
	r.Add(Wait, 1, 1.5, 0)
	r.EndStep(0, 1.5)
	tr := r.Trace()
	if tr.Rank != 3 {
		t.Errorf("Rank = %d", tr.Rank)
	}
	if len(tr.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(tr.Segments))
	}
	if tr.Segments[0].Duration() != 1 {
		t.Errorf("duration = %v", tr.Segments[0].Duration())
	}
	if len(tr.StepEnd) != 1 || tr.StepEnd[0] != 1.5 {
		t.Errorf("StepEnd = %v", tr.StepEnd)
	}
}

func TestRecorderSizedPresizesWithoutChangingContent(t *testing.T) {
	// The sized constructor only sets capacities; the recorded trace
	// must be identical to an unsized recorder's, and recording within
	// the hints must never reallocate the segment slice.
	sized := NewRecorderSized(3, 8, 4)
	plain := NewRecorder(3)
	if got := cap(sized.t.Segments); got != 8 {
		t.Errorf("segment capacity = %d, want 8", got)
	}
	if got := cap(sized.t.StepEnd); got != 4 {
		t.Errorf("step capacity = %d, want 4", got)
	}
	for _, r := range []*Recorder{sized, plain} {
		r.Add(Exec, 0, 1, 0)
		r.Add(Wait, 1, 1.5, 0)
		r.EndStep(0, 1.5)
	}
	if avg := testing.AllocsPerRun(10, func() {
		sized.t.Segments = sized.t.Segments[:0]
		sized.Add(Exec, 0, 1, 0)
		sized.Add(Wait, 1, 1.5, 0)
	}); avg > 0 {
		t.Errorf("recording within the hint allocates %.1f objects, want 0", avg)
	}
	sized.t.Segments = sized.t.Segments[:2]
	a, b := sized.Trace(), plain.Trace()
	if len(a.Segments) != len(b.Segments) || a.Segments[0] != b.Segments[0] || a.Segments[1] != b.Segments[1] {
		t.Errorf("sized recorder trace %v differs from plain %v", a.Segments, b.Segments)
	}
	// Hints are ignored when non-positive.
	z := NewRecorderSized(1, 0, -1)
	if z.t.Segments != nil || z.t.StepEnd != nil {
		t.Error("non-positive hints should not preallocate")
	}
}

func TestRecorderDropsEmptySegments(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Wait, 2, 2, 0)
	if len(r.Trace().Segments) != 0 {
		t.Error("zero-length segment retained")
	}
}

func TestRecorderPanicsOnBackwardsSegment(t *testing.T) {
	r := NewRecorder(0)
	defer func() {
		if recover() == nil {
			t.Error("backwards segment accepted")
		}
	}()
	r.Add(Exec, 2, 1, 0)
}

func TestRecorderPanicsOnOutOfOrderStep(t *testing.T) {
	r := NewRecorder(0)
	r.EndStep(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order step accepted")
		}
	}()
	r.EndStep(2, 3)
}

func TestRecorderReRecordsCurrentStep(t *testing.T) {
	r := NewRecorder(0)
	r.EndStep(0, 1)
	r.EndStep(0, 3) // second Waitall in the same step
	r.EndStep(0, 2) // earlier time must not rewind the step end
	if got := r.Trace().StepEnd[0]; got != 3 {
		t.Errorf("StepEnd[0] = %v, want 3", got)
	}
	r.EndStep(1, 4)
	if len(r.Trace().StepEnd) != 2 {
		t.Errorf("steps = %d, want 2", len(r.Trace().StepEnd))
	}
}

func TestTotalBy(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Exec, 0, 3, 0)
	r.Add(Wait, 3, 4, 0)
	r.Add(Exec, 4, 7, 1)
	r.Add(Wait, 7, 9, 1)
	tr := r.Trace()
	if got := tr.TotalBy(Wait); got != 3 {
		t.Errorf("TotalBy(Wait) = %v, want 3", got)
	}
	if got := tr.TotalBy(Exec); got != 6 {
		t.Errorf("TotalBy(Exec) = %v, want 6", got)
	}
}

func TestEnd(t *testing.T) {
	r := NewRecorder(0)
	r.Add(Exec, 0, 5, 0)
	r.EndStep(0, 6)
	if got := r.Trace().End(); got != 6 {
		t.Errorf("End = %v, want 6 (StepEnd later than segments)", got)
	}
}

func makeSet() Set {
	var traces []RankTrace
	for rank := 0; rank < 3; rank++ {
		r := NewRecorder(rank)
		base := sim.Time(rank)
		r.Add(Exec, base, base+1, 0)
		r.Add(Wait, base+1, base+1.5, 0)
		r.EndStep(0, base+1.5)
		r.Add(Exec, base+1.5, base+2.5, 1)
		r.Add(Wait, base+2.5, base+2.5+sim.Time(rank), 1)
		r.EndStep(1, base+2.5+sim.Time(rank))
		traces = append(traces, r.Trace())
	}
	// Shuffle order to prove NewSet sorts.
	traces[0], traces[2] = traces[2], traces[0]
	return NewSet(traces)
}

func TestSetSortingAndSteps(t *testing.T) {
	s := makeSet()
	for i, r := range s.Ranks {
		if r.Rank != i {
			t.Errorf("rank at index %d is %d; set not sorted", i, r.Rank)
		}
	}
	if s.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", s.Steps())
	}
}

func TestSetMatrices(t *testing.T) {
	s := makeSet()
	w := s.WaitMatrix()
	if len(w) != 3 || len(w[0]) != 2 {
		t.Fatalf("WaitMatrix shape %dx%d", len(w), len(w[0]))
	}
	if w[2][1] != 2 {
		t.Errorf("W[2][1] = %v, want 2", w[2][1])
	}
	if w[0][0] != 0.5 {
		t.Errorf("W[0][0] = %v, want 0.5", w[0][0])
	}
	e := s.StepEndMatrix()
	if e[1][0] != 2.5 {
		t.Errorf("E[1][0] = %v, want 2.5", e[1][0])
	}
}

func TestSetEnd(t *testing.T) {
	s := makeSet()
	// Rank 2: base=2, step1 end = 2+2.5+2 = 6.5.
	if got := s.End(); got != 6.5 {
		t.Errorf("Set.End = %v, want 6.5", got)
	}
	if (Set{}).End() != 0 {
		t.Error("empty set End != 0")
	}
	if (Set{}).Steps() != 0 {
		t.Error("empty set Steps != 0")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := makeSet()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Set
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ranks) != len(s.Ranks) {
		t.Fatalf("round trip lost ranks: %d vs %d", len(got.Ranks), len(s.Ranks))
	}
	for i := range got.Ranks {
		if got.Ranks[i].Rank != s.Ranks[i].Rank ||
			len(got.Ranks[i].Segments) != len(s.Ranks[i].Segments) {
			t.Errorf("rank %d differs after round trip", i)
		}
		for j := range got.Ranks[i].Segments {
			if got.Ranks[i].Segments[j] != s.Ranks[i].Segments[j] {
				t.Errorf("segment %d/%d differs: %+v vs %+v", i, j,
					got.Ranks[i].Segments[j], s.Ranks[i].Segments[j])
			}
		}
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Wait)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"wait"` {
		t.Errorf("marshal = %s", b)
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"delay"`), &k); err != nil {
		t.Fatal(err)
	}
	if k != Delay {
		t.Errorf("unmarshal = %v", k)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := json.Unmarshal([]byte(`7`), &k); err == nil {
		t.Error("numeric kind accepted")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Exec: "exec", Delay: "delay", Noise: "noise", Wait: "wait", Overhead: "overhead"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind empty string")
	}
}

func TestWaitMatrixIgnoresOutOfRangeSteps(t *testing.T) {
	r0 := NewRecorder(0)
	r0.Add(Wait, 0, 1, 0)
	r0.EndStep(0, 1)
	r1 := NewRecorder(1)
	r1.Add(Wait, 0, 1, 0)
	r1.Add(Wait, 1, 2, 1) // rank 1 ran one extra step
	r1.EndStep(0, 1)
	r1.EndStep(1, 2)
	s := NewSet([]RankTrace{r0.Trace(), r1.Trace()})
	if s.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1 (min across ranks)", s.Steps())
	}
	w := s.WaitMatrix()
	if len(w[1]) != 1 {
		t.Errorf("row width %d, want 1", len(w[1]))
	}
}
