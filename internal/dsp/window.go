package dsp

import "math"

// Analysis windows for short-time spectral analysis.

// HammingWindow returns an n-point Hamming window.
func HammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// ApplyWindow multiplies frame by window element-wise into a new slice.
func ApplyWindow(frame, window []float64) []float64 {
	if len(frame) != len(window) {
		panic("dsp: ApplyWindow length mismatch")
	}
	out := make([]float64, len(frame))
	for i := range frame {
		out[i] = frame[i] * window[i]
	}
	return out
}

// PreEmphasis applies the standard speech pre-emphasis filter
// y[t] = x[t] - coef*x[t-1] (coef typically 0.97).
func PreEmphasis(x []float64, coef float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	out[0] = x[0]
	for t := 1; t < len(x); t++ {
		out[t] = x[t] - coef*x[t-1]
	}
	return out
}

// Frames splits signal x into overlapping frames of frameLen samples with
// the given hop, zero-padding the final partial frame. It returns at least
// one frame for any non-empty signal.
func Frames(x []float64, frameLen, hop int) [][]float64 {
	if frameLen <= 0 || hop <= 0 {
		panic("dsp: Frames requires positive frameLen and hop")
	}
	if len(x) == 0 {
		return nil
	}
	var frames [][]float64
	for start := 0; start < len(x); start += hop {
		f := make([]float64, frameLen)
		copy(f, x[start:])
		frames = append(frames, f)
	}
	return frames
}
