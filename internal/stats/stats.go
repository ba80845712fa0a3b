// Package stats provides the small statistical toolkit used by the
// idle-wave experiments: streaming summaries, quantiles, fixed-bin
// histograms and least-squares linear regression (for decay-rate fits).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming first- and second-moment statistics plus
// extremes. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64 // Welford accumulators
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// String renders the summary in a compact single line.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Median returns the median of xs. It copies the input, so the caller's
// slice is not reordered. An empty input returns 0.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. An empty input returns 0;
// q is clamped to [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the extremes of xs. An empty input returns (0, 0).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Mean returns the arithmetic mean of xs, or 0 for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range are counted in the Under/Over tallies instead of a bin, so no
// observation is silently dropped.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	Under  int
	Over   int
	n      int
}

// NewHistogram creates a histogram with the given range and bin count.
// It returns an error for a non-positive bin count or an empty range.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin count, got %d", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%g, %g)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, bins)}, nil
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Bins)) }

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.BinWidth())
		if i >= len(h.Bins) { // guard against float rounding at the upper edge
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// N returns the total number of observations, including out-of-range ones.
func (h *Histogram) N() int { return h.n }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Peaks returns the centers of local maxima whose count is at least
// minCount, in ascending bin order. A bin is a local maximum if it is
// strictly greater than at least one neighbor and not less than either.
// This is how the bimodal Omni-Path noise signature (Fig. 3b) is detected.
func (h *Histogram) Peaks(minCount int) []float64 {
	var peaks []float64
	for i, c := range h.Bins {
		if c < minCount {
			continue
		}
		left := -1
		if i > 0 {
			left = h.Bins[i-1]
		}
		right := -1
		if i < len(h.Bins)-1 {
			right = h.Bins[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			peaks = append(peaks, h.BinCenter(i))
		}
	}
	return peaks
}

// LinFit holds the result of an ordinary-least-squares line fit y = A + B*x.
type LinFit struct {
	A, B float64 // intercept, slope
	R2   float64 // coefficient of determination
}

// LinearFit fits a straight line to the points (xs[i], ys[i]). It returns
// an error if the inputs differ in length, hold fewer than two points, or
// all x values coincide (undefined slope).
func LinearFit(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, fmt.Errorf("stats: LinearFit length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinFit{}, fmt.Errorf("stats: LinearFit needs >= 2 points, got %d", len(xs))
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinFit{}, fmt.Errorf("stats: LinearFit with constant x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		resid := syy - b*sxy
		r2 = 1 - resid/syy
	}
	return LinFit{A: a, B: b, R2: r2}, nil
}

// MedianMinMax is a convenience triple for the paper's error-bar plots
// (median with min/max whiskers, as in Figs. 1 and 8).
type MedianMinMax struct {
	Median, Min, Max float64
}

// Describe computes the median/min/max triple of xs.
func Describe(xs []float64) MedianMinMax {
	lo, hi := MinMax(xs)
	return MedianMinMax{Median: Median(xs), Min: lo, Max: hi}
}
