// Package dsp implements the signal-processing substrate the reproduction
// needs in two places: the MFCC speech front end (FFT, mel filterbank,
// DCT-II) and the block-circulant baselines C-LSTM / E-RNN, whose
// circulant-matrix products are computed through the FFT exactly as the
// original FPGA designs do.
package dsp

import "math"

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("dsp: FFT length must be a power of two")
	}
	bitReverse(x)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				angle := step * float64(k)
				w := complex(math.Cos(angle), math.Sin(angle))
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// IFFT computes the in-place inverse FFT of x (normalized by 1/n).
func IFFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	FFT(x)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// bitReverse permutes x into bit-reversed index order.
func bitReverse(x []complex128) {
	n := len(x)
	j := 0
	for i := 0; i < n-1; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
}

// RealFFT computes the FFT of a real signal, returning the full complex
// spectrum. len(x) must be a power of two.
func RealFFT(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	FFT(c)
	return c
}

// PowerSpectrum returns |X[k]|² for k in [0, n/2], the one-sided power
// spectrum of a real signal of power-of-two length.
func PowerSpectrum(x []float64) []float64 {
	spec := RealFFT(x)
	half := len(x)/2 + 1
	p := make([]float64, half)
	for k := 0; k < half; k++ {
		re, im := real(spec[k]), imag(spec[k])
		p[k] = re*re + im*im
	}
	return p
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// CirculantMulFFT multiplies the n×n circulant matrix defined by first
// column c with vector x using the convolution theorem:
// C·x = IFFT(FFT(c) ⊙ FFT(x)). n may be any length; internally zero-padded
// circular convolution is not valid, so non-power-of-two sizes fall back to
// the direct O(n²) product.
//
// The circulant convention used throughout (matching C-LSTM): C[i][j] =
// c[(i-j) mod n], i.e. column j is c rotated down by j.
func CirculantMulFFT(c, x []float64) []float64 {
	n := len(c)
	if len(x) != n {
		panic("dsp: CirculantMulFFT length mismatch")
	}
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return CirculantMulDirect(c, x)
	}
	cf := make([]complex128, n)
	xf := make([]complex128, n)
	for i := 0; i < n; i++ {
		cf[i] = complex(c[i], 0)
		xf[i] = complex(x[i], 0)
	}
	FFT(cf)
	FFT(xf)
	for i := 0; i < n; i++ {
		cf[i] *= xf[i]
	}
	IFFT(cf)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = real(cf[i])
	}
	return out
}

// CirculantMulDirect is the O(n²) reference circulant product.
func CirculantMulDirect(c, x []float64) []float64 {
	n := len(c)
	if len(x) != n {
		panic("dsp: CirculantMulDirect length mismatch")
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += c[((i-j)%n+n)%n] * x[j]
		}
		out[i] = s
	}
	return out
}
