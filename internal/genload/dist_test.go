package genload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// drawN samples n values from d on a fresh generator.
func drawN(t *testing.T, d Distribution, seed uint64, n int) []float64 {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(d.Sample(r, 0))
	}
	return out
}

func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

// TestDistributionMoments checks 1e5 draws of every component against
// the analytic mean and variance. The mean tolerance is six standard
// errors; the variance tolerance is a loose relative band (the variance
// estimator's own spread depends on the fourth moment, so every case
// here keeps that moment finite).
func TestDistributionMoments(t *testing.T) {
	const n = 100_000
	ms := func(v float64) sim.Time { return sim.Time(v) }
	cases := []struct {
		d        Distribution
		mean, sd float64 // analytic mean and standard deviation, seconds
	}{
		{Det{Value: ms(5e-3)}, 5e-3, 0},
		{Exp{MeanTime: ms(3e-3)}, 3e-3, 3e-3},
		{Gamma{Shape: 2, Scale: ms(1e-3)}, 2e-3, math.Sqrt(2) * 1e-3},
		{Gamma{Shape: 0.5, Scale: ms(2e-3)}, 1e-3, math.Sqrt(0.5) * 2e-3},
		{Weibull{Shape: 1.5, Scale: ms(2e-3)},
			2e-3 * math.Gamma(1+1/1.5),
			2e-3 * math.Sqrt(math.Gamma(1+2/1.5)-math.Gamma(1+1/1.5)*math.Gamma(1+1/1.5))},
		{Uniform{Lo: ms(1e-3), Hi: ms(2e-3)}, 1.5e-3, 1e-3 / math.Sqrt(12)},
		{Pareto{Shape: 5, Min: ms(1e-3)},
			5.0 / 4 * 1e-3,
			1e-3 * math.Sqrt(5.0/(16*3))},
	}
	for i, c := range cases {
		xs := drawN(t, c.d, uint64(1000+i), n)
		mean, variance := moments(xs)
		// The 1e-12 floor absorbs float accumulation over 1e5 summands
		// (only relevant for the zero-variance det case).
		if tol := 6*c.sd/math.Sqrt(n) + 1e-12; math.Abs(mean-c.mean) > tol {
			t.Errorf("%v: empirical mean %.6g, want %.6g ± %.2g", c.d, mean, c.mean, tol)
		}
		wantVar := c.sd * c.sd
		if wantVar == 0 {
			if variance > 1e-24 {
				t.Errorf("%v: det distribution has empirical variance %g, want ~0", c.d, variance)
			}
			continue
		}
		if rel := math.Abs(variance-wantVar) / wantVar; rel > 0.10 {
			t.Errorf("%v: empirical variance %.6g off analytic %.6g by %.1f%%",
				c.d, variance, wantVar, rel*100)
		}
	}
}

// TestParetoInfiniteMean pins the α ≤ 1 convention.
func TestParetoInfiniteMean(t *testing.T) {
	if m := (Pareto{Shape: 1, Min: 1e-3}).Mean(); !math.IsInf(float64(m), 1) {
		t.Fatalf("Pareto(α=1) mean = %v, want +Inf", m)
	}
}

// TestStringRoundTrip checks that every component's String() re-parses
// to a deeply equal value, the invariant the sweep-spec canonicalizer
// and content hashes rely on.
func TestStringRoundTrip(t *testing.T) {
	ds := []Distribution{
		Det{Value: 5e-3},
		Exp{MeanTime: 3e-3},
		Gamma{Shape: 2, Scale: 1e-3},
		Gamma{Shape: 0.5, Scale: 2.5e-3},
		Weibull{Shape: 1.5, Scale: 2e-3},
		Uniform{Lo: 1e-3, Hi: 2e-3},
		Pareto{Shape: 3, Min: 1e-3},
		Modulated{Base: Exp{MeanTime: 3e-3}, Terms: []ModTerm{{Amp: 0.5, Period: 0.1}}},
		Modulated{Base: Gamma{Shape: 2, Scale: 1e-3},
			Terms: []ModTerm{{Amp: 0.5, Period: 0.1}, {Amp: -0.25, Period: 0.07}}},
	}
	for _, d := range ds {
		got, err := ParseDistribution(d.String())
		if err != nil {
			t.Errorf("ParseDistribution(%q): %v", d.String(), err)
			continue
		}
		if !reflect.DeepEqual(got, d) {
			t.Errorf("round trip %q: got %#v, want %#v", d.String(), got, d)
		}
		// The embedded spelling must round-trip the same way.
		emb, err := ParseEmbedded(EmbedSpec(d))
		if err != nil {
			t.Errorf("ParseEmbedded(%q): %v", EmbedSpec(d), err)
			continue
		}
		if !reflect.DeepEqual(emb, d) {
			t.Errorf("embedded round trip %q: got %#v, want %#v", EmbedSpec(d), emb, d)
		}
	}
}

// TestParseCanonicalizesSpelling checks option order and case do not
// change the parsed value — the property the sweep service's cache
// key depends on.
func TestParseCanonicalizesSpelling(t *testing.T) {
	a, err := ParseDistribution("gamma:shape=2:scale=1ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []string{
		"gamma:scale=1ms:shape=2",
		"GAMMA:SHAPE=2:scale=1ms",
		" gamma : shape=2 : scale=1ms ",
	} {
		b, err := ParseDistribution(alt)
		if err != nil {
			t.Fatalf("ParseDistribution(%q): %v", alt, err)
		}
		if !reflect.DeepEqual(a, b) || a.String() != b.String() {
			t.Errorf("spelling %q parsed to %v, want %v", alt, b, a)
		}
	}
}

// TestParseErrors checks malformed specs error instead of panicking.
func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"bogus:3ms",
		"det",
		"det:-3ms",
		"det:0s",
		"exp:banana",
		"exp:3ms:4ms",
		"gamma:shape=2",
		"gamma:scale=1ms",
		"gamma:shape=0:scale=1ms",
		"gamma:shape=2:scale=1ms:cap=3",
		"uniform:2ms:1ms",
		"uniform:1ms",
		"pareto:shape=3",
		"exp:3ms:mod=0.5",
		"exp:3ms:mod=x@3ms",
		"exp:3ms:mod=0.5@0s",
		"exp:3ms:mod=NaN@3ms",
		"exp:3ms:mod=Inf@3ms",
		"mod=0.5@1ms",
	} {
		if _, err := ParseDistribution(s); err == nil {
			t.Errorf("ParseDistribution(%q) succeeded, want error", s)
		}
	}
}

// TestSubstreamDecorrelation checks that per-rank and per-stream
// substreams are decorrelated: the Pearson correlation between the
// sample sequences of neighboring ranks (and of the phase vs delay
// stream of one rank) stays at the fluctuation scale of independent
// sequences.
func TestSubstreamDecorrelation(t *testing.T) {
	const n = 100_000
	const seed = 42
	d := Exp{MeanTime: 3e-3}
	seq := func(rank, stream int) []float64 {
		r := rng.New(substreamSeed(seed, rank, stream))
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(d.Sample(r, 0))
		}
		return out
	}
	corr := func(a, b []float64) float64 {
		ma, va := moments(a)
		mb, vb := moments(b)
		var c float64
		for i := range a {
			c += (a[i] - ma) * (b[i] - mb)
		}
		c /= float64(len(a) - 1)
		return c / math.Sqrt(va*vb)
	}
	pairs := []struct {
		name string
		a, b []float64
	}{
		{"rank0 vs rank1 (phase)", seq(0, streamPhase), seq(1, streamPhase)},
		{"rank0 vs rank63 (phase)", seq(0, streamPhase), seq(63, streamPhase)},
		{"rank0 phase vs delay", seq(0, streamPhase), seq(0, streamDelay)},
	}
	for _, p := range pairs {
		// Independent sequences fluctuate at 1/sqrt(n) ≈ 0.003; 0.02 is
		// nearly seven sigma away while catching any real stream reuse
		// (identical or lagged streams correlate near 1).
		if c := corr(p.a, p.b); math.Abs(c) > 0.02 {
			t.Errorf("%s: correlation %.4f, want ~0", p.name, c)
		}
	}
}

// TestModulatedEnvelope pins the envelope's shape: 1 at phase zero,
// 1+amp at the quarter period, clamped at zero when the terms push it
// negative, and scaling Sample multiplicatively.
func TestModulatedEnvelope(t *testing.T) {
	m := Modulated{Base: Det{Value: 1}, Terms: []ModTerm{{Amp: 0.5, Period: 1}}}
	if got := m.Envelope(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Envelope(0) = %g, want 1", got)
	}
	if got := m.Envelope(0.25); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Envelope(T/4) = %g, want 1.5", got)
	}
	if got := m.Envelope(0.75); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Envelope(3T/4) = %g, want 0.5", got)
	}
	deep := Modulated{Base: Det{Value: 1}, Terms: []ModTerm{{Amp: -2, Period: 1}}}
	if got := deep.Envelope(0.25); got != 0 {
		t.Errorf("negative envelope clamps to 0, got %g", got)
	}
	r := rng.New(1)
	if got := m.Sample(r, 0.25); math.Abs(float64(got)-1.5) > 1e-12 {
		t.Errorf("Sample at T/4 = %v, want det value scaled to 1.5", got)
	}
	if m.Mean() != m.Base.Mean() {
		t.Errorf("modulated mean %v differs from base mean %v", m.Mean(), m.Base.Mean())
	}
	// The envelope averages to 1 over full periods, so the empirical
	// mean of time-spread samples matches the base mean.
	var sum float64
	const n = 10_000
	for i := 0; i < n; i++ {
		sum += m.Envelope(sim.Time(i) / n)
	}
	if avg := sum / n; math.Abs(avg-1) > 1e-3 {
		t.Errorf("envelope average over a full period = %g, want 1", avg)
	}
	// Nested modulation is rejected.
	bad := Modulated{Base: m, Terms: []ModTerm{{Amp: 0.1, Period: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("nested Modulated validated, want error")
	}
}
