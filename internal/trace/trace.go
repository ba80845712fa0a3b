// Package trace records what each simulated rank did and when. It is the
// common currency between the message-passing simulator (which produces
// traces) and the idle-wave analytics (which consume them) — the simulated
// equivalent of the MPI trace files the paper collects with Intel Trace
// Analyzer and Collector.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind classifies a timeline segment.
type Kind int

const (
	// Exec is productive execution (compute or memory phase).
	Exec Kind = iota
	// Delay is a deliberately injected one-off delay.
	Delay
	// Noise is injected or natural fine-grained noise extending a phase.
	Noise
	// Wait is time spent blocked in Waitall (idle periods live here).
	Wait
	// Overhead is CPU time spent inside the message-passing layer.
	Overhead
)

var kindNames = [...]string{"exec", "delay", "noise", "wait", "overhead"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown segment kind %q", s)
}

// Segment is one contiguous activity interval on a rank's timeline.
type Segment struct {
	Kind  Kind     `json:"kind"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	Step  int      `json:"step"`
}

// Duration returns the segment length.
func (s Segment) Duration() sim.Time { return s.End - s.Start }

// RankTrace is the complete recorded timeline of one rank.
type RankTrace struct {
	Rank     int       `json:"rank"`
	Segments []Segment `json:"segments"`
	// StepEnd[k] is the wall-clock time at which the rank finished time
	// step k (completed its Waitall).
	StepEnd []sim.Time `json:"step_end"`
}

// Recorder accumulates a rank's trace during simulation.
type Recorder struct {
	t RankTrace
}

// NewRecorder creates a recorder for the given rank.
func NewRecorder(rank int) *Recorder {
	return &Recorder{t: RankTrace{Rank: rank}}
}

// NewRecorderSized creates a recorder with capacity hints: segments for
// the expected number of timeline segments, steps for the expected
// number of completed time steps. Simulators that know the program shape
// up front use this to avoid the append-doubling reallocations that
// otherwise dominate a recorder's cost; the hints are capacities only
// and do not change what is recorded. Non-positive hints are ignored.
func NewRecorderSized(rank, segments, steps int) *Recorder {
	r := &Recorder{t: RankTrace{Rank: rank}}
	if segments > 0 {
		r.t.Segments = make([]Segment, 0, segments)
	}
	if steps > 0 {
		r.t.StepEnd = make([]sim.Time, 0, steps)
	}
	return r
}

// Add appends a segment. Zero-length segments are dropped: they carry no
// information and would bloat timelines with clutter.
func (r *Recorder) Add(kind Kind, start, end sim.Time, step int) {
	if end < start {
		panic(fmt.Sprintf("trace: segment ends %v before it starts %v", end, start))
	}
	if end == start {
		return
	}
	r.t.Segments = append(r.t.Segments, Segment{Kind: kind, Start: start, End: end, Step: step})
}

// EndStep records the completion time of a time step. Steps must be
// recorded in non-decreasing order; recording the current step again
// (several Waitalls within one step, as collectives do) overwrites its
// end time with the later value.
func (r *Recorder) EndStep(step int, at sim.Time) {
	switch {
	case step == len(r.t.StepEnd):
		r.t.StepEnd = append(r.t.StepEnd, at)
	case step == len(r.t.StepEnd)-1:
		if at > r.t.StepEnd[step] {
			r.t.StepEnd[step] = at
		}
	default:
		panic(fmt.Sprintf("trace: step %d recorded out of order (have %d)", step, len(r.t.StepEnd)))
	}
}

// Trace returns the accumulated trace.
func (r *Recorder) Trace() RankTrace { return r.t }

// TotalBy sums segment durations of one kind.
func (t RankTrace) TotalBy(kind Kind) sim.Time {
	var sum sim.Time
	for _, s := range t.Segments {
		if s.Kind == kind {
			sum += s.Duration()
		}
	}
	return sum
}

// End returns the rank's last recorded activity end time.
func (t RankTrace) End() sim.Time {
	var end sim.Time
	for _, s := range t.Segments {
		if s.End > end {
			end = s.End
		}
	}
	if n := len(t.StepEnd); n > 0 && t.StepEnd[n-1] > end {
		end = t.StepEnd[n-1]
	}
	return end
}

// Set is the trace of a whole simulation run.
type Set struct {
	Ranks []RankTrace `json:"ranks"`
}

// NewSet bundles rank traces, sorted by rank for deterministic output.
func NewSet(traces []RankTrace) Set {
	sorted := append([]RankTrace(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	return Set{Ranks: sorted}
}

// Steps returns the number of recorded steps (minimum across ranks, since
// analytics index step matrices rectangularly). An empty set returns 0.
func (s Set) Steps() int {
	if len(s.Ranks) == 0 {
		return 0
	}
	steps := len(s.Ranks[0].StepEnd)
	for _, r := range s.Ranks[1:] {
		if len(r.StepEnd) < steps {
			steps = len(r.StepEnd)
		}
	}
	return steps
}

// End returns the latest activity end across all ranks (the run's
// wall-clock makespan).
func (s Set) End() sim.Time {
	var end sim.Time
	for _, r := range s.Ranks {
		if e := r.End(); e > end {
			end = e
		}
	}
	return end
}

// WaitMatrix returns W[rank][step] = wait time of that rank in that step,
// the central quantity for idle-wave tracking.
func (s Set) WaitMatrix() [][]sim.Time {
	steps := s.Steps()
	m := make([][]sim.Time, len(s.Ranks))
	for i, r := range s.Ranks {
		row := make([]sim.Time, steps)
		for _, seg := range r.Segments {
			if seg.Kind == Wait && seg.Step >= 0 && seg.Step < steps {
				row[seg.Step] += seg.Duration()
			}
		}
		m[i] = row
	}
	return m
}

// StepEndMatrix returns E[rank][step] = completion time of each step.
func (s Set) StepEndMatrix() [][]sim.Time {
	steps := s.Steps()
	m := make([][]sim.Time, len(s.Ranks))
	for i, r := range s.Ranks {
		m[i] = append([]sim.Time(nil), r.StepEnd[:steps]...)
	}
	return m
}
