// Package spectral provides the Fourier analysis used to characterize
// desynchronization patterns across ranks. Markidis et al. (Phys. Rev. E
// 91, 013306), the work that motivated the paper, identified idle waves
// through Fourier analysis of per-rank timelines; this package implements
// the same tooling from scratch: a radix-2 FFT with Bluestein fallback
// for arbitrary lengths, power spectra, and dominant-wavelength
// extraction (the paper's Fig. 2 observes a fundamental wavelength equal
// to the system size).
package spectral

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. Power-of-two lengths
// use an in-place iterative radix-2 Cooley-Tukey; other lengths use
// Bluestein's chirp-z algorithm, so any input size works in O(n log n).
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		radix2(out, false)
		return out
	}
	return bluestein(x)
}

// radix2 computes an in-place FFT of power-of-two length. inverse flips
// the twiddle sign (no normalization).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * w
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform:
// the DFT becomes a convolution, evaluated with power-of-two FFTs.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	// chirp[k] = exp(-i*pi*k^2/n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n; take mod 2n first (exp period).
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// PowerSpectrum returns |X_k|^2 for k = 0..n/2 of the real signal xs,
// with the mean removed first (the DC component would otherwise swamp
// every structural mode).
func PowerSpectrum(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	in := make([]complex128, n)
	for i, v := range xs {
		in[i] = complex(v-mean, 0)
	}
	f := FFT(in)
	out := make([]float64, n/2+1)
	for k := range out {
		out[k] = real(f[k])*real(f[k]) + imag(f[k])*imag(f[k])
	}
	return out
}

// DominantWavelength returns the wavelength (in samples) of the strongest
// non-DC mode of the real signal, and that mode's share of total spectral
// power. A flat signal returns wavelength 0.
func DominantWavelength(xs []float64) (wavelength float64, share float64, err error) {
	if len(xs) < 4 {
		return 0, 0, fmt.Errorf("spectral: need >= 4 samples, have %d", len(xs))
	}
	ps := PowerSpectrum(xs)
	total := 0.0
	best, bestK := 0.0, 0
	for k := 1; k < len(ps); k++ {
		total += ps[k]
		if ps[k] > best {
			best, bestK = ps[k], k
		}
	}
	if total == 0 || bestK == 0 {
		return 0, 0, nil
	}
	return float64(len(xs)) / float64(bestK), best / total, nil
}
