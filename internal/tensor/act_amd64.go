//go:build amd64 && !purego

package tensor

import "math"

// Dispatch for the fast activation kernels (act_amd64.s), which require
// AVX2+FMA (the fastSIMD gate); each wrapper returns the number
// of leading elements the vector kernel consumed (a multiple of 8, or 0
// when the unit is unavailable) and the caller finishes the tail with the
// portable scalar polynomials.

//go:noescape
func tanhFastAVX(dst, src *float32, n int)

//go:noescape
func sigmoidFastAVX(dst, src *float32, n int)

//go:noescape
func gruEpilogueFastAVX(h, axz, axr, axc, ahz, ahr, ahc *float32, n int)

//go:noescape
func expSubSumFastAVX(dst, src *float32, n int, mx float32) float32

// actConsts is the constant table the activation kernels broadcast-load
// from: each logical constant is replicated across one 32-byte row so the
// ymm kernels can use it directly as a memory operand. Row order must match
// the byte offsets hard-coded in act_amd64.s.
var actConsts [27 * 8]float32

func init() {
	rows := [27]float32{
		tanhFastClamp,  // row 0
		-tanhFastClamp, // row 1
		tanhAlpha13,    // row 2
		tanhAlpha11,    // row 3
		tanhAlpha9,     // row 4
		tanhAlpha7,     // row 5
		tanhAlpha5,     // row 6
		tanhAlpha3,     // row 7
		tanhAlpha1,     // row 8
		tanhBeta6,      // row 9
		tanhBeta4,      // row 10
		tanhBeta2,      // row 11
		tanhBeta0,      // row 12
		0.5,            // row 13
		1.0,            // row 14
		expLog2e,       // row 15
		expLn2Hi,       // row 16
		expLn2Lo,       // row 17
		expFastC0,      // row 18
		expFastC1,      // row 19
		expFastC2,      // row 20
		expFastC3,      // row 21
		expFastC4,      // row 22
		expFastC5,      // row 23
		expFastHi,      // row 24
		expFastLo,      // row 25
		// row 26 is the float32 exponent bias as raw int32 bits, consumed
		// by VPADDD when reassembling 2^k.
		math.Float32frombits(expBiasF32),
	}
	for i, v := range rows {
		for l := 0; l < 8; l++ {
			actConsts[i*8+l] = v
		}
	}
}

// tanhFastVec runs the vector tanh over the leading n&^7 elements,
// returning how many it consumed (0 without AVX2+FMA).
func tanhFastVec(dst, src []float32) int {
	n := len(src) &^ 7
	if !fastSIMD || n == 0 {
		return 0
	}
	tanhFastAVX(&dst[0], &src[0], n)
	return n
}

// sigmoidFastVec is tanhFastVec for the logistic kernel.
func sigmoidFastVec(dst, src []float32) int {
	n := len(src) &^ 7
	if !fastSIMD || n == 0 {
		return 0
	}
	sigmoidFastAVX(&dst[0], &src[0], n)
	return n
}

// gruEpilogueFastVec runs the fused single-pass GRU epilogue over the
// leading n&^7 state elements, returning how many it consumed. The caller
// guarantees the GRUEpilogue slice contract (len(ax) == len(ah) == 3n).
func gruEpilogueFastVec(h, ax, ah []float32) int {
	n := len(h)
	n8 := n &^ 7
	if !fastSIMD || n8 == 0 {
		return 0
	}
	gruEpilogueFastAVX(&h[0], &ax[0], &ax[n], &ax[2*n], &ah[0], &ah[n], &ah[2*n], n8)
	return n8
}

// expSubSumFastVec computes dst[i] = exp(src[i]-mx) for the leading n&^7
// elements, returning their float32 sum and the consumed count.
func expSubSumFastVec(dst, src []float32, mx float32) (float32, int) {
	n := len(src) &^ 7
	if !fastSIMD || n == 0 {
		return 0, 0
	}
	return expSubSumFastAVX(&dst[0], &src[0], n, mx), n
}
