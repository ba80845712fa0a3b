package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, x, y)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestStateRoundTrip(t *testing.T) {
	a := New(7)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	b := &Rand{s: a.State()}
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("restored state diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Child and parent streams should not be identical.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and split child matched %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/7-1000 || c > n/7+1000 {
			t.Errorf("Intn(7): value %d appeared %d times, want ~%d", v, c, n/7)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(6)
	const n = 200000
	const mean = 3.5
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(mean)
		if x < 0 {
			t.Fatalf("Exp returned negative %g", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("Exp mean = %g, want ~%g", got, mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	r := New(6)
	if x := r.Exp(0); x != 0 {
		t.Errorf("Exp(0) = %g, want 0", x)
	}
	if x := r.Exp(-1); x != 0 {
		t.Errorf("Exp(-1) = %g, want 0", x)
	}
}

func TestTruncExpRespectsCap(t *testing.T) {
	r := New(8)
	for i := 0; i < 50000; i++ {
		x := r.TruncExp(10, 2)
		if x < 0 || x > 2 {
			t.Fatalf("TruncExp(10,2) = %g outside [0,2]", x)
		}
	}
}

func TestTruncExpUncapped(t *testing.T) {
	r := New(8)
	seen := false
	for i := 0; i < 10000; i++ {
		if r.TruncExp(5, 0) > 20 {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("TruncExp with cap<=0 never exceeded 20 for mean 5; looks capped")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	const mean, sd = 2.0, 0.5
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(mean, sd)
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mean) > 0.01 {
		t.Errorf("Normal mean = %g, want ~%g", m, mean)
	}
	if math.Abs(math.Sqrt(v)-sd) > 0.01 {
		t.Errorf("Normal stddev = %g, want ~%g", math.Sqrt(v), sd)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-3, 7)
		if x < -3 || x >= 7 {
			t.Fatalf("Uniform(-3,7) = %g out of range", x)
		}
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(1,0) did not panic")
		}
	}()
	New(1).Uniform(1, 0)
}

func TestSampleMixtureWeights(t *testing.T) {
	r := New(11)
	comp := []Mixture{
		{Weight: 0.9, Sample: func(*Rand) float64 { return 1 }},
		{Weight: 0.1, Sample: func(*Rand) float64 { return 100 }},
	}
	const n = 100000
	hi := 0
	for i := 0; i < n; i++ {
		if r.SampleMixture(comp) == 100 {
			hi++
		}
	}
	frac := float64(hi) / n
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("mixture picked heavy tail with frequency %g, want ~0.1", frac)
	}
}

func TestSampleMixturePanics(t *testing.T) {
	cases := []struct {
		name string
		comp []Mixture
	}{
		{"empty", nil},
		{"zero weight", []Mixture{{Weight: 0, Sample: func(*Rand) float64 { return 0 }}}},
		{"negative weight", []Mixture{{Weight: -1, Sample: func(*Rand) float64 { return 0 }}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", c.name)
				}
			}()
			New(1).SampleMixture(c.comp)
		})
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("Shuffle changed element multiset: sum %d -> %d", sum, got)
	}
}

// Property: mul64 must agree with big-integer multiplication on the low and
// high words. testing/quick drives the cases.
func TestMul64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify against the identity via math/bits-free decomposition:
		// recompute with 32-bit limbs independently.
		const mask = 1<<32 - 1
		a0, a1 := a&mask, a>>32
		b0, b1 := b&mask, b>>32
		lo2 := a * b
		carry := (a0*b0)>>32 + (a1*b0+a0*b1)&mask
		_ = carry
		hi2 := a1*b1 + (a1*b0)>>32 + (a0*b1)>>32 +
			((a1*b0)&mask+(a0*b1)&mask+(a0*b0)>>32)>>32
		return lo == lo2 && hi == hi2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Exp is always non-negative and finite for any positive mean.
func TestExpFiniteProperty(t *testing.T) {
	r := New(77)
	f := func(seed uint16) bool {
		mean := float64(seed%1000)/100 + 0.01
		x := r.Exp(mean)
		return x >= 0 && !math.IsInf(x, 1) && !math.IsNaN(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1.0)
	}
	_ = sink
}
