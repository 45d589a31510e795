package tensor

import "math"

// IEEE-754 binary16 emulation. The paper's mobile-GPU deployment runs GRU
// inference in 16-bit floating point ("Our GPU implementation uses 16-bit
// floating point", Table II caption); rounding weights and activations
// through fp16 reproduces that quantization error path on the simulator.

// float32ToHalf converts an IEEE-754 binary32 value to binary16 bits with
// round-to-nearest-even, handling subnormals, infinities and NaN.
func float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23)&0xff - 127 + 15
	mant := bits & 0x7fffff

	if exp >= 0x1f { // overflow or inf/nan source
		if int32(bits>>23)&0xff == 0xff {
			if mant != 0 {
				return sign | 0x7e00 // NaN (quiet)
			}
			return sign | 0x7c00 // Inf
		}
		return sign | 0x7c00 // overflow -> Inf
	}
	if exp <= 0 {
		// Subnormal half or zero.
		if exp < -10 {
			return sign // underflow to signed zero
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := mant >> shift
		// round to nearest even
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	}
	half := uint16(exp)<<10 | uint16(mant>>13)
	// round to nearest even on the 13 dropped bits
	rem := mant & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
		half++ // may carry into exponent; that is correct rounding behaviour
	}
	return sign | half
}

// halfToFloat32 converts binary16 bits to binary32.
func halfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000) // Inf
		}
		return math.Float32frombits(sign | 0x7fc00000) // NaN
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// RoundHalf rounds a float32 through binary16 and back, reproducing the
// precision loss of storing the value in fp16.
func RoundHalf(f float32) float32 { return halfToFloat32(float32ToHalf(f)) }

// QuantizeHalf rounds every element of m through fp16 in place and returns m.
func QuantizeHalf(m *Matrix) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = RoundHalf(v)
	}
	return m
}

// QuantizeHalfVec rounds every element of v through fp16 in place.
func QuantizeHalfVec(v []float32) {
	for i, x := range v {
		v[i] = RoundHalf(x)
	}
}
