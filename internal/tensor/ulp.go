package tensor

import "math"

// ULP-distance helpers for the fast activation family (SigmoidFast,
// TanhFast, SoftmaxFast, GRUEpilogueFast). The exact kernels are
// bit-identical to the scalar reference, so their tests compare bytes; the
// fast kernels evaluate float32 polynomial approximations with fused
// multiply-adds, so their contract is a tolerance: every output must sit
// within a small ULP distance of the exact oracle, or within an absolute
// bound sized to the kernel's output range. Both arms are needed — a pure
// ULP bound fails where the exact result's magnitude collapses (sigmoid's
// tail, tanh near 0, a GRU blend that cancels), and a pure absolute bound
// is meaninglessly loose for large-magnitude outputs.

// ulpIndex maps a float32 onto a signed integer line where adjacent
// representable values (denormals included) are exactly one apart and
// ordering matches <. IEEE-754 binary interchange formats are monotone in
// their bit patterns within a sign, so the map is the payload for positive
// values and its negation for negative ones; both zeros land on 0.
func ulpIndex(f float32) int64 {
	u := math.Float32bits(f)
	if u&(1<<31) != 0 {
		return -int64(u &^ (1 << 31))
	}
	return int64(u)
}

// ULPDiff32 returns the distance between a and b in float32 ULPs, counting
// every representable value between them — denormals included, and sign
// flips measured through zero (so 1.0e-45 and -1.0e-45 are 2 apart, not
// half the number line). NaN on either side returns MaxUint64. Infinities
// sit one past the largest finite value, so comparing an overflowed result
// against a finite oracle yields a large-but-ordered distance.
func ULPDiff32(a, b float32) uint64 {
	if a != a || b != b { // NaN never compares close to anything
		return math.MaxUint64
	}
	d := ulpIndex(a) - ulpIndex(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// fastClose reports whether got is an acceptable fast-kernel value for the
// exact oracle want: bit-equal, within ulps ULPs, or within atol absolutely.
func fastClose(got, want float32, ulps uint64, atol float64) bool {
	if got == want {
		return true
	}
	if ULPDiff32(got, want) <= ulps {
		return true
	}
	return math.Abs(float64(got)-float64(want)) <= atol
}

// FastActULPs is the per-element ULP budget for the fast activation
// kernels (SigmoidFast/TanhFast/SoftmaxFast/GRUEpilogueFast) against their
// exact oracles. The rational tanh approximation is good to ~2 ULP over
// most of its range, the derived sigmoid and the exp polynomial to a few
// more; 64 carries headroom for the FMA'd vector evaluation orders.
const FastActULPs = 64

// Absolute-error arms for the activation kernels, paired with FastActULPs
// through FastActClose. A pure ULP bound fails where the exact result's
// magnitude collapses — sigmoid's ~e^x tail, tanh near 0, softmax's
// smallest classes, a GRU blend that cancels — so each kernel gets an
// absolute floor sized to its output range: sigmoid and tanh map into
// [−1, 1] (bounds a few ×2⁻²⁴ of that span), softmax stacks the exp and
// the float32 sum/normalize roundings. The GRU blend compounds
// |Δh′| ≤ |Δz|·|h−c| + |Δc| where |Δc| ≤ FastTanhTol + FastSigmoidTol·|ah_c|
// — the reset gate multiplies the sigmoid error by the candidate recurrent
// pre-activation — so its floor is sized for gate pre-activations up to
// magnitude ~32, far beyond anything a trained, bounded-state GRU produces.
const (
	FastSigmoidTol = 2.5e-7
	FastTanhTol    = 5e-7
	FastSoftmaxTol = 1e-6
	FastGRUTol     = 1e-5
)

// FastActClose is fastClose with the shared activation ULP budget: callers
// pick the absolute arm for the kernel under test from the tolerances
// above.
func FastActClose(got, want float32, atol float64) bool {
	return fastClose(got, want, FastActULPs, atol)
}
