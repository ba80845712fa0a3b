package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %g, want %g", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Error("zero-value summary should report zeros")
	}
	s.Add(3)
	if s.Var() != 0 {
		t.Errorf("single-observation Var = %g, want 0", s.Var())
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Errorf("single obs min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	if s.String() == "" {
		t.Error("String returned empty")
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); !almostEq(m, 2.5, 1e-12) {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %g, want 0", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median reordered caller slice: %v", xs)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {-0.5, 10}, {2, 40}, {0.5, 25}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestMinMaxAndMean(t *testing.T) {
	lo, hi := MinMax([]float64{5, -2, 9, 0})
	if lo != -2 || hi != 9 {
		t.Errorf("MinMax = %g,%g want -2,9", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Errorf("empty MinMax = %g,%g", lo, hi)
	}
	if m := Mean([]float64{1, 2, 3, 4}); !almostEq(m, 2.5, 1e-12) {
		t.Errorf("Mean = %g, want 2.5", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("empty Mean = %g", m)
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99} {
		h.Add(x)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Bins[i] != w {
			t.Errorf("bin %d = %d, want %d (bins %v)", i, h.Bins[i], w, h.Bins)
		}
	}
	if h.N() != 5 {
		t.Errorf("N = %d, want 5", h.N())
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	h.Add(-0.1)
	h.Add(1.0) // hi edge is exclusive
	h.Add(5)
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.N() != 3 {
		t.Errorf("N = %d, want 3", h.N())
	}
}

func TestHistogramInvalidConstruction(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramModeAndCenters(t *testing.T) {
	h, _ := NewHistogram(0, 4, 4)
	for i := 0; i < 3; i++ {
		h.Add(2.5) // bin 2
	}
	h.Add(0.5)
	if p := h.Peaks(2); len(p) != 1 || !almostEq(p[0], 2.5, 1e-12) {
		t.Errorf("Peaks(2) = %v, want the mode [2.5]", p)
	}
	if c := h.BinCenter(0); !almostEq(c, 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %g, want 0.5", c)
	}
}

func TestHistogramPeaksBimodal(t *testing.T) {
	// Construct an explicitly bimodal histogram like Fig. 3(b).
	h, _ := NewHistogram(0, 10, 10)
	add := func(x float64, n int) {
		for i := 0; i < n; i++ {
			h.Add(x)
		}
	}
	add(1.5, 100) // peak in bin 1
	add(0.5, 10)
	add(2.5, 10)
	add(7.5, 40) // second peak in bin 7
	add(6.5, 5)
	add(8.5, 5)
	peaks := h.Peaks(20)
	if len(peaks) != 2 {
		t.Fatalf("Peaks = %v, want two peaks", peaks)
	}
	if !almostEq(peaks[0], 1.5, 1e-9) || !almostEq(peaks[1], 7.5, 1e-9) {
		t.Errorf("peak centers = %v, want [1.5 7.5]", peaks)
	}
}

func TestHistogramPeaksUnimodal(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	for i := 0; i < 50; i++ {
		h.Add(3.5)
	}
	h.Add(2.5)
	peaks := h.Peaks(10)
	if len(peaks) != 1 {
		t.Fatalf("unimodal Peaks = %v, want one", peaks)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.A, 1, 1e-12) || !almostEq(fit.B, 2, 1e-12) {
		t.Errorf("fit = %+v, want A=1 B=2", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rng.New(5)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 4+0.5*x+r.Normal(0, 0.1))
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.B, 0.5, 0.01) {
		t.Errorf("slope = %g, want ~0.5", fit.B)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %g, want > 0.98", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestDescribe(t *testing.T) {
	d := Describe([]float64{1, 2, 3, 4, 100})
	if d.Median != 3 || d.Min != 1 || d.Max != 100 {
		t.Errorf("Describe = %+v", d)
	}
}

// Property: Welford mean equals naive mean for arbitrary inputs.
func TestSummaryMeanMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		sum := 0.0
		for _, v := range raw {
			x := float64(v)
			s.Add(x)
			sum += x
		}
		return almostEq(s.Mean(), sum/float64(len(raw)), 1e-9*math.Max(1, math.Abs(sum)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(42)
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: histogram never loses observations.
func TestHistogramConservationProperty(t *testing.T) {
	r := rng.New(43)
	f := func(n uint8) bool {
		h, err := NewHistogram(-5, 5, 7)
		if err != nil {
			return false
		}
		total := int(n)
		for i := 0; i < total; i++ {
			h.Add(r.Normal(0, 4))
		}
		inBins := 0
		for _, c := range h.Bins {
			inBins += c
		}
		return inBins+h.Under+h.Over == total && h.N() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
