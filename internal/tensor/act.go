package tensor

import "math"

// Activation kernels and the fused GRU gate epilogue.
//
// Two families: the exact kernels reproduce the historical scalar reference
// bit-for-bit (float64 exp round-trip, clamped exactly as the nn package
// always has) and are what every engine runs, while the fast family
// evaluates rational/polynomial float32 approximations — vectorized on
// AVX2+FMA, with the portable scalar polynomials below defining its
// semantics when no vector unit is available. Fast outputs are
// tolerance-verified against the exact oracle (see FastActClose in ulp.go),
// never bit-compared.

// Sigmoid32 is the exact-tier scalar logistic gate. This is the historical
// nn-package body moved here verbatim: the clamps and the float64 exp
// round-trip are part of the bit-identical exact contract, so they must not
// be "simplified".
func Sigmoid32(x float32) float32 {
	// Clamp to avoid exp overflow in float64 conversion extremes.
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Tanh32 is the exact-tier scalar tanh gate (historical nn-package body,
// moved verbatim — see Sigmoid32).
func Tanh32(x float32) float32 {
	if x > 15 {
		return 1
	}
	if x < -15 {
		return -1
	}
	e2 := math.Exp(2 * float64(x))
	return float32((e2 - 1) / (e2 + 1))
}

// checkGateLens validates the GRU epilogue slice contract: ax and ah hold
// the three fused gate slices [z | r | c], each len(h) long.
func checkGateLens(h, ax, ah []float32) int {
	n := len(h)
	if len(ax) != 3*n || len(ah) != 3*n {
		panic("tensor: GRUEpilogue gate length mismatch")
	}
	return n
}

// GRUEpilogue fuses the per-timestep GRU gate math into one streaming pass,
// updating h in place from the fused gate pre-activations:
//
//	z    = σ(ax_z + ah_z)
//	r    = σ(ax_r + ah_r)
//	c    = tanh(ax_c + r ⊙ ah_c)
//	h'   = (1−z) ⊙ h + z ⊙ c
//
// ax and ah are the [z | r | c] fused projections (length 3·len(h)). The
// element order and every scalar operation match the unfused reference
// loops the nn steppers used to run, so exact-tier outputs are
// bit-identical to the pre-fusion code. Each product is wrapped in an
// explicit float32 conversion, which rounds it and so forbids the compiler
// from fusing it with the following add (Go spec, "Floating-point
// operators"): arm64 and other FMA targets then round exactly as amd64 does.
// `make vet` refuses a fused multiply-add here.
//
// nn's one stepper family calls it on column-major panels of any width: a
// [3H × bw] gate panel flattened row-major is exactly the [z | r | c] layout
// with n = H·bw (bw == 1: the plain vectors), so passing the whole panels
// fuses the batch blend too.
func GRUEpilogue(h, ax, ah []float32) {
	n := checkGateLens(h, ax, ah)
	axz, axr, axc := ax[:n], ax[n:2*n], ax[2*n:]
	ahz, ahr, ahc := ah[:n], ah[n:2*n], ah[2*n:]
	for i := 0; i < n; i++ {
		z := Sigmoid32(axz[i] + ahz[i])
		r := Sigmoid32(axr[i] + ahr[i])
		c := Tanh32(axc[i] + float32(r*ahc[i]))
		h[i] = float32((1-z)*h[i]) + float32(z*c)
	}
}

// GRUEpilogueFast is GRUEpilogue in the fast family: one
// streaming AVX2+FMA pass evaluating the rational tanh/sigmoid
// approximations in-register (portable scalar polynomials otherwise).
// Outputs are within FastGRUTol/FastActULPs of GRUEpilogue's, not
// bit-identical.
func GRUEpilogueFast(h, ax, ah []float32) {
	n := checkGateLens(h, ax, ah)
	for i := gruEpilogueFastVec(h, ax, ah); i < n; i++ {
		z := sigmoidFastScalar(ax[i] + ah[i])
		r := sigmoidFastScalar(ax[n+i] + ah[n+i])
		c := tanhFastScalar(ax[2*n+i] + r*ah[2*n+i])
		h[i] = (1-z)*h[i] + z*c
	}
}

// SigmoidFast applies the fast logistic element-wise (dst may alias
// src). Tolerance contract: FastActClose(..., FastSigmoidTol) per element
// against the exact Sigmoid.
func SigmoidFast(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: SigmoidFast length mismatch")
	}
	for i := sigmoidFastVec(dst, src); i < len(src); i++ {
		dst[i] = sigmoidFastScalar(src[i])
	}
}

// TanhFast applies the fast tanh element-wise (dst may alias src).
// Tolerance contract: FastActClose(..., FastTanhTol) per element against
// the exact Tanh.
func TanhFast(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: TanhFast length mismatch")
	}
	for i := tanhFastVec(dst, src); i < len(src); i++ {
		dst[i] = tanhFastScalar(src[i])
	}
}

// SoftmaxFast is Softmax in the fast family: same max-subtract
// shape, but the exp pass runs the vectorized float32 exp with a float32
// sum. Per-element tolerance against the exact Softmax is
// FastActClose(..., FastSoftmaxTol).
func SoftmaxFast(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	mx := src[0]
	for _, x := range src[1:] {
		if x > mx {
			mx = x
		}
	}
	sum, done := expSubSumFastVec(dst, src, mx)
	for i := done; i < len(src); i++ {
		e := expFastScalar(src[i] - mx)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Fast-family scalar reference polynomials. These define its semantics
// on builds without the vector unit; the AVX2+FMA kernels evaluate the same
// polynomials with fused roundings, so vector and scalar results are
// mutually within the family's tolerance of the exact oracle rather than
// bit-equal to each other.

// tanhFastClamp bounds the rational approximation's input range;
// |tanh(x)| rounds to 1 in float32 well before |x| reaches it.
const tanhFastClamp = 7.90531110763549805

// Eigen-style 7/4-term rational tanh coefficients: odd numerator
// x·P(x²), even denominator Q(x²).
const (
	tanhAlpha1  = 4.89352455891786e-03
	tanhAlpha3  = 6.37261928875436e-04
	tanhAlpha5  = 1.48572235717979e-05
	tanhAlpha7  = 5.12229709037114e-08
	tanhAlpha9  = -8.60467152213735e-11
	tanhAlpha11 = 2.00018790482477e-13
	tanhAlpha13 = -2.76076847742355e-16
	tanhBeta0   = 4.89352518554385e-03
	tanhBeta2   = 2.26843463243900e-03
	tanhBeta4   = 1.18534705686654e-04
	tanhBeta6   = 1.19825839466702e-06
)

// tanhFastScalar evaluates the rational tanh approximation in float32.
// NaN input fails both clamp comparisons and rides through the polynomial
// unchanged, so NaN propagates exactly like the exact kernels.
func tanhFastScalar(x float32) float32 {
	if x > tanhFastClamp {
		x = tanhFastClamp
	} else if x < -tanhFastClamp {
		x = -tanhFastClamp
	}
	x2 := x * x
	p := float32(tanhAlpha13)
	p = p*x2 + tanhAlpha11
	p = p*x2 + tanhAlpha9
	p = p*x2 + tanhAlpha7
	p = p*x2 + tanhAlpha5
	p = p*x2 + tanhAlpha3
	p = p*x2 + tanhAlpha1
	p *= x
	q := float32(tanhBeta6)
	q = q*x2 + tanhBeta4
	q = q*x2 + tanhBeta2
	q = q*x2 + tanhBeta0
	return p / q
}

// sigmoidFastScalar derives the logistic from the tanh approximation via
// σ(x) = ½ + ½·tanh(x/2), keeping one polynomial family for both gates.
func sigmoidFastScalar(x float32) float32 {
	return 0.5 + 0.5*tanhFastScalar(0.5*x)
}

// Cephes-style float32 exp constants: x = k·ln2 + z with the Cody-Waite
// two-constant split of ln2, a degree-5 polynomial on z ∈ [−½ln2, ½ln2],
// and the 2^k scale applied through the exponent bits.
const (
	expFastHi  = 88.0  // exp overflows float32 just above 88.72
	expFastLo  = -87.0 // exp underflows to 0 below −87.33
	expLog2e   = 1.44269504088896341
	expLn2Hi   = 0.693359375
	expLn2Lo   = -2.12194440e-4
	expFastC0  = 1.9875691500e-4
	expFastC1  = 1.3981999507e-3
	expFastC2  = 8.3334519073e-3
	expFastC3  = 4.1665795894e-2
	expFastC4  = 1.6666665459e-1
	expFastC5  = 5.0000001201e-1
	expBiasF32 = 127
)

// expFastScalar evaluates float32 e^x. NaN propagates (clamp comparisons
// fail, the reduction and polynomial stay NaN); ±Inf saturate through the
// clamps like any large finite input.
func expFastScalar(x float32) float32 {
	if x > expFastHi {
		x = expFastHi
	} else if x < expFastLo {
		x = expFastLo
	}
	kf := float32(math.Floor(float64(x)*expLog2e + 0.5))
	z := x - kf*expLn2Hi
	z -= kf * expLn2Lo
	p := float32(expFastC0)
	p = p*z + expFastC1
	p = p*z + expFastC2
	p = p*z + expFastC3
	p = p*z + expFastC4
	p = p*z + expFastC5
	r := p*z*z + z + 1
	if kf != kf { // NaN input: skip the bit-trick scale, r is already NaN
		return r
	}
	return r * math.Float32frombits(uint32(int32(kf)+expBiasF32)<<23)
}
