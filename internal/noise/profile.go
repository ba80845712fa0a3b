package noise

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mpisim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// NoiseProfile is the composable description of a fine-grained noise
// source: something that can validate its parameters and bind itself to
// a run, yielding a per-execution-phase injector. The built-in
// implementations — ExponentialNoise, BimodalNoise, PeriodicNoise,
// CombinedNoise, SilentNoise and the empirical mixture Profile — cover
// the paper's Fig. 3 histograms plus OS-jitter-style periodic
// perturbations; anything satisfying the interface plugs into Machine
// descriptions and ScenarioSpec.Noise alike.
type NoiseProfile interface {
	// Validate checks the profile parameters.
	Validate() error
	// Build binds the profile to a run: seed derives the deterministic
	// per-rank random streams, texec (the execution-phase length in
	// seconds) scales relative components and maps steps to wall time.
	// Profiles with only absolute components ignore texec; relative and
	// periodic components return an error when texec is zero. The
	// returned injector may be nil, meaning no noise at all.
	Build(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error)
	// String names the profile; the built-in component types render the
	// re-parseable Parse flag syntax.
	String() string
}

// ExponentialNoise is an exponentially distributed noise component: every
// execution phase of every rank gains an independent exponential sample.
// Exactly one of Level (mean relative to the execution phase — the
// paper's E) and Mean (absolute mean delay) must be set. A positive Cap
// truncates samples, reproducing the hard cutoff of the Fig. 3a
// InfiniBand histogram.
type ExponentialNoise struct {
	// Level is the paper's E: the mean extra delay per execution phase,
	// relative to the phase length. Exclusive with Mean.
	Level float64
	// Mean is the absolute mean extra delay. Exclusive with Level.
	Mean sim.Time
	// Cap is a hard upper cutoff on each sample; 0 means uncapped.
	Cap sim.Time
}

// Validate implements NoiseProfile.
func (e ExponentialNoise) Validate() error {
	if !sim.NonNegative(e.Level) || !sim.NonNegative(e.Mean) || !sim.NonNegative(e.Cap) {
		return fmt.Errorf("noise: exponential component has a negative or non-finite parameter")
	}
	if e.Level > 0 && e.Mean > 0 {
		return fmt.Errorf("noise: exponential component sets both Level and Mean; pick one")
	}
	if e.Level == 0 && e.Mean == 0 {
		return fmt.Errorf("noise: exponential component needs a Level or a Mean (use SilentNoise for no noise)")
	}
	return nil
}

// mean resolves the component's absolute mean for a given phase length.
func (e ExponentialNoise) mean(texec sim.Time) (sim.Time, error) {
	if e.Level > 0 {
		if texec <= 0 {
			return 0, fmt.Errorf("noise: relative exponential noise (Level=%g) needs a positive texec", e.Level)
		}
		return sim.Time(e.Level) * texec, nil
	}
	return e.Mean, nil
}

// Build implements NoiseProfile. An uncapped component draws plain
// exponential samples — byte-identical to the ScenarioSpec.NoiseLevel
// stream for the same seed and mean. A capped component goes through the
// mixture machinery, byte-identical to the single-component Profile it
// describes (the Emmy natural-noise path).
func (e ExponentialNoise) Build(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	mean, err := e.mean(texec)
	if err != nil {
		return nil, err
	}
	if e.Cap <= 0 {
		m := float64(mean)
		return perRank(seed, func(r *rng.Rand) float64 { return r.Exp(m) }), nil
	}
	return e.profileWith(mean).Injector(seed)
}

// profileWith renders the component as a one-entry mixture Profile with
// the given resolved mean.
func (e ExponentialNoise) profileWith(mean sim.Time) Profile {
	return Profile{
		Name:       e.String(),
		Components: []ProfileComponent{{Weight: 1, Mean: mean, Cap: e.Cap}},
	}
}

// String implements NoiseProfile in the Parse syntax.
func (e ExponentialNoise) String() string {
	var b strings.Builder
	b.WriteString("exp:")
	if e.Level > 0 {
		b.WriteString(formatFloat(e.Level))
	} else {
		b.WriteString(formatDuration(e.Mean))
	}
	if e.Cap > 0 {
		b.WriteString(":cap=")
		b.WriteString(formatDuration(e.Cap))
	}
	return b.String()
}

// BimodalNoise is a two-population noise component: an exponential bulk
// plus an isolated spike at an offset — the shape of the Fig. 3b
// Omni-Path histogram, whose CPU-hungry driver produces a second
// population near 660 us.
type BimodalNoise struct {
	// Mean is the bulk population's mean extra delay.
	Mean sim.Time
	// Cap is a hard cutoff on the bulk population; 0 means uncapped.
	Cap sim.Time
	// SpikeWeight is the spike's relative frequency (e.g. 0.03).
	SpikeWeight float64
	// BulkWeight is the bulk's relative frequency; 0 means 1-SpikeWeight.
	BulkWeight float64
	// SpikeMean is the spike population's mean width.
	SpikeMean sim.Time
	// SpikeOffset shifts the spike population away from zero.
	SpikeOffset sim.Time
}

// Validate implements NoiseProfile.
func (b BimodalNoise) Validate() error {
	if !sim.NonNegative(b.Mean) || !sim.NonNegative(b.Cap) || !sim.NonNegative(b.SpikeMean) || !sim.NonNegative(b.SpikeOffset) {
		return fmt.Errorf("noise: bimodal component has a negative or non-finite parameter")
	}
	if b.Mean == 0 {
		return fmt.Errorf("noise: bimodal component needs a bulk Mean")
	}
	if !(b.SpikeWeight > 0 && b.SpikeWeight < 1) {
		return fmt.Errorf("noise: bimodal spike weight %g outside (0, 1)", b.SpikeWeight)
	}
	if !sim.NonNegative(b.BulkWeight) {
		return fmt.Errorf("noise: bimodal component has a negative or non-finite bulk weight")
	}
	if b.SpikeMean == 0 {
		return fmt.Errorf("noise: bimodal component needs a SpikeMean")
	}
	return nil
}

// bulkWeight resolves the bulk population's weight.
func (b BimodalNoise) bulkWeight() float64 {
	if b.BulkWeight > 0 {
		return b.BulkWeight
	}
	return 1 - b.SpikeWeight
}

// profile renders the component as a two-entry mixture Profile.
func (b BimodalNoise) profile() Profile {
	return Profile{
		Name: b.String(),
		Components: []ProfileComponent{
			{Weight: b.bulkWeight(), Mean: b.Mean, Cap: b.Cap},
			{Weight: b.SpikeWeight, Mean: b.SpikeMean, Offset: b.SpikeOffset},
		},
	}
}

// Build implements NoiseProfile; the stream is byte-identical to the
// two-component Profile the parameters describe (the Meggie
// natural-noise path).
func (b BimodalNoise) Build(seed uint64, _ sim.Time) (mpisim.NoiseFunc, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.profile().Injector(seed)
}

// String implements NoiseProfile in the Parse syntax.
func (b BimodalNoise) String() string {
	var sb strings.Builder
	sb.WriteString("bimodal:")
	sb.WriteString(formatDuration(b.Mean))
	if b.Cap > 0 {
		sb.WriteString(":cap=")
		sb.WriteString(formatDuration(b.Cap))
	}
	fmt.Fprintf(&sb, ":spike=%s@%s:w=%s",
		formatDuration(b.SpikeMean), formatDuration(b.SpikeOffset), formatFloat(b.SpikeWeight))
	if b.BulkWeight > 0 && b.BulkWeight != 1-b.SpikeWeight {
		sb.WriteString(":wbulk=")
		sb.WriteString(formatFloat(b.BulkWeight))
	}
	return sb.String()
}

// PeriodicNoise is an OS-jitter-style component: a recurring perturbation
// (a daemon, a timer tick, an interrupt storm) steals Duration of CPU
// time every Period of wall-clock time. Each rank gets an independent
// random phase offset — real jitter sources are not synchronized across
// nodes — and each execution phase is charged one Duration per period
// boundary it spans, using the scenario's texec to map steps to wall
// time.
type PeriodicNoise struct {
	// Duration is the extra busy time per jitter event.
	Duration sim.Time
	// Period is the wall-clock time between events.
	Period sim.Time
}

// Validate implements NoiseProfile.
func (p PeriodicNoise) Validate() error {
	if !sim.Positive(p.Duration) {
		return fmt.Errorf("noise: periodic component needs a positive duration, got %v", float64(p.Duration))
	}
	if !sim.Positive(p.Period) {
		return fmt.Errorf("noise: periodic component needs a positive period, got %v", float64(p.Period))
	}
	return nil
}

// Build implements NoiseProfile. The injector is deterministic in
// (rank, step): rank r's events fire at offset_r + k*Period where
// offset_r is drawn once per rank from the seed, and step s is charged
// for every event in the ideal phase window (s*texec, (s+1)*texec]. The
// mapping uses the undisturbed phase grid — jitter does not reschedule
// itself around the delays it causes — which keeps the stream independent
// of execution order, like every other injector in this package.
func (p PeriodicNoise) Build(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if texec <= 0 {
		return nil, fmt.Errorf("noise: periodic noise needs a positive texec to map steps to wall time")
	}
	base := rng.New(seed).State()[0]
	period := float64(p.Period)
	offsets := make(map[int]float64)
	return func(rank, step int) sim.Time {
		off, ok := offsets[rank]
		if !ok {
			// Same per-rank substream derivation as perRank: the offset a
			// rank sees is independent of which other ranks exist.
			r := rng.New(base ^ (uint64(rank)+1)*0x9e3779b97f4a7c15)
			off = r.Float64() * period
			offsets[rank] = off
		}
		t0 := float64(step) * float64(texec)
		t1 := t0 + float64(texec)
		k := math.Floor((t1-off)/period) - math.Floor((t0-off)/period)
		if k <= 0 {
			return 0
		}
		return sim.Time(k) * p.Duration
	}, nil
}

// String implements NoiseProfile in the Parse syntax.
func (p PeriodicNoise) String() string {
	return "periodic:" + formatDuration(p.Duration) + "@" + formatDuration(p.Period)
}

// CombinedNoise sums the contributions of several noise profiles, each
// built from its own decorrelated seed stream. Construct with
// CombineNoise.
type CombinedNoise struct {
	Parts []NoiseProfile
}

// CombineNoise merges noise profiles into one: the resulting injector
// adds their contributions, with each part drawing from an independent
// substream of the seed. Nil and silent parts are dropped and nested
// combinations flattened; zero live parts yield SilentNoise, one yields
// that part unchanged.
func CombineNoise(parts ...NoiseProfile) NoiseProfile {
	var live []NoiseProfile
	for _, p := range parts {
		switch v := p.(type) {
		case nil:
		case SilentNoise:
			// contributes nothing
		case CombinedNoise:
			live = append(live, v.Parts...)
		default:
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return SilentNoise{}
	case 1:
		return live[0]
	}
	return CombinedNoise{Parts: live}
}

// Validate implements NoiseProfile.
func (c CombinedNoise) Validate() error {
	if len(c.Parts) == 0 {
		return fmt.Errorf("noise: combined profile has no parts")
	}
	for i, p := range c.Parts {
		if p == nil {
			return fmt.Errorf("noise: combined profile part %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Build implements NoiseProfile: each part is built from a seed offset by
// its index (SplitMix64 increments, so nearby part seeds stay
// uncorrelated) and the injectors are summed.
func (c CombinedNoise) Build(seed uint64, texec sim.Time) (mpisim.NoiseFunc, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	fns := make([]mpisim.NoiseFunc, 0, len(c.Parts))
	for i, p := range c.Parts {
		fn, err := p.Build(seed+uint64(i)*0x9e3779b97f4a7c15, texec)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return Combine(fns...), nil
}

// String implements NoiseProfile in the Parse syntax.
func (c CombinedNoise) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, "+")
}

// SilentNoise is the explicit no-noise profile (the "simulated system").
type SilentNoise struct{}

// Validate implements NoiseProfile.
func (SilentNoise) Validate() error { return nil }

// Build implements NoiseProfile: a nil injector, meaning no noise.
func (SilentNoise) Build(uint64, sim.Time) (mpisim.NoiseFunc, error) { return nil, nil }

// String implements NoiseProfile.
func (SilentNoise) String() string { return "silent" }

// Build lets the empirical mixture Profile satisfy NoiseProfile; the
// components are absolute, so texec is ignored and the stream equals
// Injector(seed).
func (p Profile) Build(seed uint64, _ sim.Time) (mpisim.NoiseFunc, error) {
	return p.Injector(seed)
}

// String implements NoiseProfile; a mixture profile is named, not
// re-parseable.
func (p Profile) String() string { return p.Name }

// EmmyNoise is the InfiniBand system's natural noise (Fig. 3a) as a
// composable component: approximately exponential, mean 2.4 us, capped
// below 30 us.
func EmmyNoise() ExponentialNoise {
	return ExponentialNoise{Mean: sim.Micro(2.4), Cap: sim.Micro(30)}
}

// MeggieNoise is the Omni-Path system's natural noise (Fig. 3b) as a
// composable component: an exponential bulk of mean 2.8 us plus the
// distinctive driver spike near 660 us.
func MeggieNoise() BimodalNoise {
	return BimodalNoise{
		Mean: sim.Micro(2.8), Cap: sim.Micro(30),
		BulkWeight: 0.97, SpikeWeight: 0.03,
		SpikeMean: sim.Micro(25), SpikeOffset: sim.Micro(640),
	}
}

// SampleProfile draws n observations from a noise profile's rank-0
// stream, for histogram experiments. texec scales relative components
// (pass the phase length the samples describe). A silent profile yields
// all-zero samples.
func SampleProfile(np NoiseProfile, seed uint64, texec sim.Time, n int) ([]sim.Time, error) {
	fn, err := np.Build(seed, texec)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Time, n)
	if fn == nil {
		return out, nil
	}
	for i := range out {
		out[i] = fn(0, i)
	}
	return out, nil
}

// formatDuration renders a sim.Time in time.Duration syntax (rounded to
// nanoseconds), so String output round-trips through Parse.
func formatDuration(t sim.Time) string { return sim.FormatDuration(t) }

// formatFloat renders a float with the shortest re-parseable form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Interface checks.
var (
	_ NoiseProfile = ExponentialNoise{}
	_ NoiseProfile = BimodalNoise{}
	_ NoiseProfile = PeriodicNoise{}
	_ NoiseProfile = CombinedNoise{}
	_ NoiseProfile = SilentNoise{}
	_ NoiseProfile = Profile{}
)
