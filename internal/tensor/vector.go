package tensor

import "math"

// Vector helpers. Vectors are plain []float32 throughout the library; these
// free functions give them the same algebra the Matrix type has.

// CloneVec returns a copy of v.
func CloneVec(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}

// Axpy computes y += a*x in place.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ZeroVec sets v to all zeros.
func ZeroVec(v []float32) {
	for i := range v {
		v[i] = 0
	}
}

// ArgMax returns the index of the largest element; -1 for an empty vector.
// Ties resolve to the lowest index, which keeps decoding deterministic.
func ArgMax(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// Sigmoid applies the logistic function element-wise, writing into dst
// (dst may alias src). The saturated tails skip the float64
// convert-exp-convert round-trip where the result is provably the same
// bits: for x ≥ 18, e⁻ˣ < 2⁻²⁵ so 1/(1+e⁻ˣ) narrows to exactly 1; for
// x ≤ −104, the result is below 2⁻¹⁵⁰ and narrows to exactly +0. NaN fails
// both comparisons and still takes the full formula. The bit-equality
// regression test pins both branches against the raw formula.
func Sigmoid(dst, src []float32) {
	for i, x := range src {
		switch {
		case x >= 18:
			dst[i] = 1
		case x <= -104:
			dst[i] = 0
		default:
			dst[i] = float32(1 / (1 + math.Exp(-float64(x))))
		}
	}
}

// Tanh applies tanh element-wise, writing into dst (dst may alias src).
// For |x| ≥ 9.5, 1 − |tanh(x)| < 2e⁻¹⁹ < 2⁻²⁵, so the float32 narrowing is
// exactly ±1 and the math.Tanh call is skipped (same bits, proven by the
// regression test). NaN fails both comparisons and takes the full call.
func Tanh(dst, src []float32) {
	for i, x := range src {
		switch {
		case x >= 9.5:
			dst[i] = 1
		case x <= -9.5:
			dst[i] = -1
		default:
			dst[i] = float32(math.Tanh(float64(x)))
		}
	}
}

// Softmax writes the softmax of src into dst using the max-subtraction trick.
func Softmax(dst, src []float32) {
	SoftmaxStats(dst, src)
}

// SoftmaxStats is Softmax exposing the reduction by-products: the input
// max and the float64 sum of e^(x−mx). Callers recover the log-partition
// as log(sum)+mx, which is what lets nn's cross-entropy share this one
// kernel instead of hand-rolling the same loop. The normalization path is
// bit-identical to what Softmax has always produced.
func SoftmaxStats(dst, src []float32) (mx float32, sum float64) {
	if len(dst) != len(src) {
		panic("tensor: Softmax length mismatch")
	}
	if len(src) == 0 {
		return 0, 0
	}
	mx = src[0]
	for _, x := range src[1:] {
		if x > mx {
			mx = x
		}
	}
	for i, x := range src {
		e := math.Exp(float64(x - mx))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
	return mx, sum
}
