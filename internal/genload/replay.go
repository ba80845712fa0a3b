package genload

import (
	"fmt"
	"os"

	"repro/internal/mpisim"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Replay is a workload rebuilt from a recorded trace v2: its programs
// mirror the source run's per-(rank, step) op structure exactly — the
// same aggregated Delay op when the recorded delay is positive, a
// Compute op with the recorded execution-phase duration, the recorded
// topology's neighbor exchange — so a re-simulation on the recorded
// machine (with natural noise silenced and the recorded noise replayed
// through NoiseProfile) performs the identical sequence of float64
// additions and reproduces the source run byte-identically.
type Replay struct {
	// Source is the trace file path, used only for the String label
	// ("replay:run.iwt2").
	Source string
	// Data is the decoded trace.
	Data *trace.Recorded
	// Injections are extra one-off delays layered on top of the recorded
	// ones — replay-what-if experiments ("same run, one more delay").
	Injections []noise.Injection
}

// Open loads a trace v2 file into a Replay workload.
func Open(path string) (Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return Replay{}, fmt.Errorf("genload: %w", err)
	}
	defer f.Close()
	rec, err := trace.ReadRecorded(f)
	if err != nil {
		return Replay{}, err
	}
	return Replay{Source: path, Data: &rec}, nil
}

// Validate checks the recorded data and the extra injections.
func (w Replay) Validate() error {
	if w.Data == nil {
		return fmt.Errorf("genload: replay workload has no recorded trace")
	}
	if err := w.Data.Validate(); err != nil {
		return err
	}
	if _, err := w.Topology(); err != nil {
		return err
	}
	for _, inj := range w.Injections {
		if inj.Rank < 0 || inj.Rank >= w.Data.Ranks {
			return fmt.Errorf("genload: injection rank %d out of range [0,%d)", inj.Rank, w.Data.Ranks)
		}
		if inj.Step < 0 || inj.Step >= w.Data.Steps {
			return fmt.Errorf("genload: injection step %d out of range [0,%d)", inj.Step, w.Data.Steps)
		}
		if !sim.Positive(inj.Duration) {
			return fmt.Errorf("genload: non-positive or non-finite injection duration %v", inj.Duration)
		}
	}
	return nil
}

// Topology parses the recorded topology spec.
func (w Replay) Topology() (topology.Topology, error) {
	if w.Data == nil {
		return nil, fmt.Errorf("genload: replay workload has no recorded trace")
	}
	t, err := topology.Parse(w.Data.Topology)
	if err != nil {
		return nil, fmt.Errorf("genload: recorded topology: %w", err)
	}
	if t.Ranks() != w.Data.Ranks {
		return nil, fmt.Errorf("genload: recorded topology %v has %d ranks, trace has %d",
			t, t.Ranks(), w.Data.Ranks)
	}
	return t, nil
}

// Delays lists the extra one-off injections (the recorded delays live in
// the generated programs).
func (w Replay) Delays() []noise.Injection { return w.Injections }

// PhaseHint returns the recorded execution-phase length.
func (w Replay) PhaseHint() sim.Time {
	if w.Data == nil {
		return 0
	}
	return sim.Time(w.Data.TexecNS) / 1e9
}

// MessageHint returns the recorded per-neighbor message size.
func (w Replay) MessageHint() int {
	if w.Data == nil {
		return 0
	}
	return w.Data.Bytes
}

// WithInjections returns a copy carrying the extra one-off delays.
func (w Replay) WithInjections(inj ...noise.Injection) Part {
	out := make([]noise.Injection, 0, len(w.Injections)+len(inj))
	out = append(out, w.Injections...)
	w.Injections = append(out, inj...)
	return w
}

// String labels the workload by its source file ("replay:run.iwt2").
func (w Replay) String() string { return "replay:" + w.Source }

// NoiseProfile returns the profile replaying the recorded per-(rank,
// step) noise extensions. Wiring it as the scenario's noise (with the
// machine's natural noise silenced) closes the replay loop: the recorded
// run's exact noise draws come back at the exact phases they extended.
func (w Replay) NoiseProfile() noise.NoiseProfile {
	if w.Data == nil {
		return TraceNoise{}
	}
	return TraceNoise{Noise: w.Data.Noise}
}

// Programs rebuilds the source run's per-rank programs from the recorded
// durations.
func (w Replay) Programs() ([]mpisim.Program, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	topo, err := w.Topology()
	if err != nil {
		return nil, err
	}
	rec := w.Data
	return BulkLoop{
		Topo: topo, Steps: rec.Steps, Bytes: rec.Bytes, Injections: w.Injections,
		Fill: func(i int, exec, delay []sim.Time) {
			for s := range exec {
				exec[s], delay[s] = sim.Time(rec.Exec[i][s]), sim.Time(rec.Delay[i][s])
			}
		},
	}.Programs(), nil
}

// TraceNoise is the noise profile of a replayed run: the injector
// returns the recorded per-(rank, step) noise extension verbatim, with
// zero everywhere outside the recorded matrix. It consumes no random
// draws, so it is trivially shard-invariant.
type TraceNoise struct {
	// Noise is the recorded per-[rank][step] extension in seconds.
	Noise [][]float64
}

// Validate implements noise.NoiseProfile.
func (t TraceNoise) Validate() error {
	for r, row := range t.Noise {
		for s, v := range row {
			if !sim.NonNegative(v) {
				return fmt.Errorf("genload: recorded noise[%d][%d] is negative or non-finite", r, s)
			}
		}
	}
	return nil
}

// Build implements noise.NoiseProfile; seed and texec are irrelevant to
// a verbatim replay.
func (t TraceNoise) Build(_ uint64, _ sim.Time) (mpisim.NoiseFunc, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(t.Noise) == 0 {
		return nil, nil
	}
	noise := t.Noise
	return func(rank, step int) sim.Time {
		if rank < 0 || rank >= len(noise) {
			return 0
		}
		row := noise[rank]
		if step < 0 || step >= len(row) {
			return 0
		}
		return sim.Time(row[step])
	}, nil
}

// String implements noise.NoiseProfile.
func (t TraceNoise) String() string { return "trace" }

var _ noise.NoiseProfile = TraceNoise{}
