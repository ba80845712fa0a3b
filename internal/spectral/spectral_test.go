package spectral

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func randSignal(r *rng.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
	}
	return x
}

func TestFFTMatchesNaivePowerOfTwo(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randSignal(r, n)
		if e := maxErr(FFT(x), naiveDFT(x)); e > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT differs from naive DFT by %g", n, e)
		}
	}
}

func TestFFTMatchesNaiveArbitraryLength(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{3, 5, 6, 7, 12, 100, 101} {
		x := randSignal(r, n)
		if e := maxErr(FFT(x), naiveDFT(x)); e > 1e-8*float64(n) {
			t.Errorf("n=%d (Bluestein): FFT differs from naive DFT by %g", n, e)
		}
	}
}

func TestFFTEmptyInput(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) != nil")
	}
}

// ifft is the inverse DFT normalized by 1/n, by the conjugate trick
// conj(FFT(conj(x)))/n.
func ifft(x []complex128) []complex128 {
	tmp := make([]complex128, len(x))
	for i, v := range x {
		tmp[i] = cmplx.Conj(v)
	}
	out := FFT(tmp)
	for i, v := range out {
		out[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return out
}

func TestIFFTInvertsFFT(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{8, 10, 33, 128} {
		x := randSignal(r, n)
		back := ifft(FFT(x))
		if e := maxErr(x, back); e > 1e-9*float64(n) {
			t.Errorf("n=%d: IFFT(FFT(x)) differs from x by %g", n, e)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Energy conservation: sum|x|^2 == sum|X|^2 / n.
	r := rng.New(4)
	f := func(raw uint8) bool {
		n := int(raw%60) + 4
		x := randSignal(r, n)
		timeE := 0.0
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE := 0.0
		for _, v := range FFT(x) {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-6*math.Max(1, timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumPureTone(t *testing.T) {
	// A pure cosine with 4 periods over 64 samples puts all power in
	// bin 4.
	n := 64
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5 + 2*math.Cos(2*math.Pi*4*float64(i)/float64(n))
	}
	ps := PowerSpectrum(xs)
	best := 0
	for k := 1; k < len(ps); k++ {
		if ps[k] > ps[best] {
			best = k
		}
	}
	if best != 4 {
		t.Errorf("dominant bin = %d, want 4", best)
	}
	// DC removed: bin 0 ~ 0 despite the +5 offset.
	if ps[0] > 1e-18*ps[4] {
		t.Errorf("DC bin = %g, want ~0 after mean removal", ps[0])
	}
}

func TestDominantWavelength(t *testing.T) {
	n := 100
	xs := make([]float64, n)
	for i := range xs {
		// Fundamental wavelength = system size (the Fig. 2 pattern).
		xs[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	wl, share, err := DominantWavelength(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wl-float64(n)) > 1e-9 {
		t.Errorf("wavelength = %g, want %d", wl, n)
	}
	if share < 0.95 {
		t.Errorf("dominant share = %g, want ~1 for a pure tone", share)
	}
}

func TestDominantWavelengthFlatSignal(t *testing.T) {
	xs := []float64{3, 3, 3, 3, 3, 3}
	wl, share, err := DominantWavelength(xs)
	if err != nil {
		t.Fatal(err)
	}
	if wl != 0 || share != 0 {
		t.Errorf("flat signal gave wl=%g share=%g", wl, share)
	}
}

func TestDominantWavelengthTooShort(t *testing.T) {
	if _, _, err := DominantWavelength([]float64{1, 2}); err == nil {
		t.Error("short input accepted")
	}
}

func TestPowerSpectrumEmpty(t *testing.T) {
	if PowerSpectrum(nil) != nil {
		t.Error("empty spectrum not nil")
	}
}

// Property: linearity of the transform.
func TestFFTLinearityProperty(t *testing.T) {
	r := rng.New(5)
	f := func(raw uint8) bool {
		n := int(raw%30) + 2
		x := randSignal(r, n)
		y := randSignal(r, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + 2*y[i]
		}
		fx, fy, fs := FFT(x), FFT(y), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fx[i]+2*fy[i])) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := rng.New(1)
	x := randSignal(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	r := rng.New(1)
	x := randSignal(r, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
