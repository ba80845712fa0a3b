// Package rng provides a small, deterministic pseudo-random number
// generator and the distributions needed by the idle-wave experiments.
//
// The experiments in this repository must be exactly reproducible: a given
// seed has to produce the same noise samples, the same injected delays and
// therefore the same simulated timelines on every run and every platform.
// The package therefore implements its own generator (xoshiro256++) instead
// of relying on math/rand, whose global state and version-dependent
// algorithms would make runs irreproducible.
package rng

import (
	"fmt"
	"math"
)

// Rand is a deterministic source of pseudo-random numbers based on the
// xoshiro256++ algorithm by Blackman and Vigna. The zero value is not valid;
// use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed value. The seed is
// expanded into the 256-bit generator state with SplitMix64, as recommended
// by the xoshiro authors, so that nearby seeds yield uncorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A state of all zeros is the one fixed point of xoshiro; SplitMix64
	// cannot produce it from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// State returns the current internal state.
func (r *Rand) State() [4]uint64 { return r.s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of the
// receiver's. It draws a fresh seed from the receiver, so the receiver's
// stream advances by one step. Splitting is how per-rank noise sources are
// derived from a single experiment seed.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }

// Float64 returns a uniform sample in the half-open interval [0, 1).
// It uses the upper 53 bits, the standard conversion that yields every
// representable multiple of 2^-53.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with non-positive n=%d", n))
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Exp returns an exponentially distributed sample with the given mean.
// A mean of zero (or below) returns 0, which lets callers express "no
// noise" without branching.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	// Inverse CDF. 1-Float64() is in (0,1], so Log never sees zero.
	return -mean * math.Log(1-r.Float64())
}

// Normal returns a normally distributed sample with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Rand) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Uniform returns a uniform sample in [lo, hi). It panics if hi < lo.
func (r *Rand) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform called with hi=%g < lo=%g", hi, lo))
	}
	return lo + (hi-lo)*r.Float64()
}

// TruncExp returns an exponential sample with the given mean, rejected and
// redrawn until it is at most cap. With cap <= 0 the sample is unbounded.
// Fig. 3 of the paper shows natural fine-grained noise to be approximately
// exponential with a hard upper cutoff (< 30 µs on the InfiniBand system);
// TruncExp reproduces that shape.
func (r *Rand) TruncExp(mean, cap float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cap <= 0 {
		return r.Exp(mean)
	}
	for i := 0; i < 64; i++ {
		if x := r.Exp(mean); x <= cap {
			return x
		}
	}
	// Mean far above cap: fall back to a uniform draw so we terminate.
	return r.Uniform(0, cap)
}

// Mixture describes one component of a discrete mixture distribution.
type Mixture struct {
	Weight float64             // relative, need not sum to 1
	Sample func(*Rand) float64 // component sampler
}

// SampleMixture draws from a discrete mixture of components. It panics if
// the component list is empty or the total weight is not positive.
func (r *Rand) SampleMixture(components []Mixture) float64 {
	if len(components) == 0 {
		panic("rng: SampleMixture with no components")
	}
	total := 0.0
	for _, c := range components {
		if c.Weight < 0 {
			panic("rng: SampleMixture with negative weight")
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("rng: SampleMixture with non-positive total weight")
	}
	x := r.Uniform(0, total)
	acc := 0.0
	for i, c := range components {
		acc += c.Weight
		if x < acc || i == len(components)-1 {
			return c.Sample(r)
		}
	}
	panic("unreachable")
}

// Shuffle pseudo-randomly reorders the elements of a slice through the
// provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
