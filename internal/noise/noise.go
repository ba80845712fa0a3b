// Package noise builds the delay and noise injectors used by the
// idle-wave experiments: deliberate one-off delays (which launch idle
// waves), exponentially distributed fine-grained noise (Eq. 3 of the
// paper, which damps them), and empirical "natural system noise" profiles
// that mimic the histograms of Fig. 3.
//
// All injectors produce mpisim.NoiseFunc values. Injectors are
// deterministic: they derive one private random stream per rank from a
// single seed, so a given configuration always produces the same noise
// regardless of execution order.
//
// That determinism extends across injector instances: two injectors
// built from the same parameters replay byte-identical per-rank streams
// no matter how their queries interleave across ranks, because each
// substream depends only on (seed, rank) and on the rank's own query
// count. This is what makes the injectors safe to clone per shard for
// conservative parallel runs (mpisim.Config.NoiseFactory) — every shard
// sees exactly the noise a serial run would have produced. A single
// injector instance is still not safe for concurrent use; sharded runs
// must build one instance per shard through the factory.
package noise

import (
	"fmt"

	"repro/internal/mpisim"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Injection is one deliberate one-off delay: Duration of extra busy time
// inserted into the given rank's execution phase of the given step.
type Injection struct {
	Rank     int
	Step     int
	Duration sim.Time
}

// Exponential returns an injector producing exponentially distributed
// extra time in every execution phase of every rank, with mean
// level*texec. level is the paper's noise parameter E (mean relative
// delay per execution period); level <= 0 yields no noise.
//
// Per-rank substreams are split from the seed so that adding ranks does
// not perturb the noise other ranks see.
func Exponential(seed uint64, level float64, texec sim.Time) mpisim.NoiseFunc {
	if level <= 0 {
		return nil
	}
	mean := level * float64(texec)
	return perRank(seed, func(r *rng.Rand) float64 {
		return r.Exp(mean)
	})
}

// Profile describes the shape of a system's natural fine-grained noise,
// matching the Fig. 3 histograms.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// Components mix exponential-like populations: Weight is the relative
	// frequency, Mean the mean extra delay, Cap a hard upper cutoff
	// (0 = uncapped). A narrow second component models the bimodal
	// Omni-Path driver spike.
	Components []ProfileComponent
}

// ProfileComponent is one mixture component of a noise profile.
type ProfileComponent struct {
	Weight float64
	Mean   sim.Time
	Cap    sim.Time
	// Offset shifts the component (used for the isolated second peak of
	// the Omni-Path distribution, centered near 660 us).
	Offset sim.Time
}

// Validate checks profile invariants.
func (p Profile) Validate() error {
	if len(p.Components) == 0 {
		return fmt.Errorf("noise: profile %q has no components", p.Name)
	}
	total := 0.0
	for i, c := range p.Components {
		if !sim.NonNegative(c.Weight) {
			return fmt.Errorf("noise: profile %q component %d has a negative or non-finite weight", p.Name, i)
		}
		if !sim.NonNegative(c.Mean) || !sim.NonNegative(c.Cap) || !sim.NonNegative(c.Offset) {
			return fmt.Errorf("noise: profile %q component %d has a negative or non-finite parameter", p.Name, i)
		}
		total += c.Weight
	}
	if total <= 0 {
		return fmt.Errorf("noise: profile %q has zero total weight", p.Name)
	}
	return nil
}

// Injector turns a profile into a per-execution-phase noise function.
// It returns an error if the profile is invalid.
func (p Profile) Injector(seed uint64) (mpisim.NoiseFunc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	comps := make([]rng.Mixture, len(p.Components))
	for i, c := range p.Components {
		c := c
		comps[i] = rng.Mixture{
			Weight: c.Weight,
			Sample: func(r *rng.Rand) float64 {
				return float64(c.Offset) + r.TruncExp(float64(c.Mean), float64(c.Cap))
			},
		}
	}
	return perRank(seed, func(r *rng.Rand) float64 {
		return r.SampleMixture(comps)
	}), nil
}

// Sample draws n observations from the profile, for histogram experiments
// (Fig. 3). It returns an error if the profile is invalid.
func (p Profile) Sample(seed uint64, n int) ([]sim.Time, error) {
	inj, err := p.Injector(seed)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = inj(0, i)
	}
	return out, nil
}

// perRank builds a NoiseFunc with an independent substream per rank.
// Samples are drawn lazily in step order; because mpisim executes each
// rank's phases in program order, the (rank, step) -> sample mapping is
// deterministic. The mapping is also shard-invariant: a substream
// depends only on (seed, rank) and the rank's own draw count, never on
// queries for other ranks, so independently built instances agree
// sample-for-sample however their queries interleave.
func perRank(seed uint64, sample func(*rng.Rand) float64) mpisim.NoiseFunc {
	root := rng.New(seed)
	streams := make(map[int]*rng.Rand)
	return func(rank, step int) sim.Time {
		r, ok := streams[rank]
		if !ok {
			// Derive the substream from the seed and the rank id only, so
			// the noise a rank sees is independent of which other ranks
			// exist or when they run.
			r = rng.New(root.State()[0] ^ (uint64(rank)+1)*0x9e3779b97f4a7c15)
			streams[rank] = r
		}
		return sim.Time(sample(r))
	}
}

// Combine merges several injectors: the returned injector adds their
// contributions. Nil injectors are skipped; if all are nil, Combine
// returns nil.
func Combine(fns ...mpisim.NoiseFunc) mpisim.NoiseFunc {
	live := fns[:0:0]
	for _, f := range fns {
		if f != nil {
			live = append(live, f)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(rank, step int) sim.Time {
		var sum sim.Time
		for _, f := range live {
			sum += f(rank, step)
		}
		return sum
	}
}

// EmmyProfile models the InfiniBand cluster's natural noise with SMT
// enabled (Fig. 3a) as an empirical mixture Profile, derived from the
// composable EmmyNoise component (the histogram experiments sample the
// mixture directly).
func EmmyProfile() Profile {
	e := EmmyNoise()
	p := e.profileWith(e.Mean)
	p.Name = "emmy-smt-on"
	return p
}

// MeggieProfile models the Omni-Path cluster's natural noise with SMT
// disabled (Fig. 3b) — an exponential bulk plus the driver spike near
// 660 us — as an empirical mixture Profile derived from MeggieNoise.
func MeggieProfile() Profile {
	p := MeggieNoise().profile()
	p.Name = "meggie-smt-off"
	return p
}
