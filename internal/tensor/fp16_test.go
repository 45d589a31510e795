package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHalfExactValues(t *testing.T) {
	// Values exactly representable in binary16 must round-trip bit-exactly.
	exact := []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504 /* max half */}
	for _, v := range exact {
		if got := RoundHalf(v); got != v {
			t.Fatalf("RoundHalf(%v) = %v, want exact", v, got)
		}
	}
}

func TestHalfSignedZero(t *testing.T) {
	nz := float32(math.Copysign(0, -1))
	bits := float32ToHalf(nz)
	if bits != 0x8000 {
		t.Fatalf("-0 encodes to %#x, want 0x8000", bits)
	}
	back := halfToFloat32(bits)
	if math.Signbit(float64(back)) != true || back != 0 {
		t.Fatalf("-0 round trip = %v", back)
	}
}

func TestHalfInfinity(t *testing.T) {
	inf := float32(math.Inf(1))
	if halfToFloat32(float32ToHalf(inf)) != inf {
		t.Fatal("+Inf round trip failed")
	}
	if halfToFloat32(float32ToHalf(-inf)) != -inf {
		t.Fatal("-Inf round trip failed")
	}
	// Overflow saturates to Inf.
	if !math.IsInf(float64(RoundHalf(1e6)), 1) {
		t.Fatal("overflow should produce +Inf")
	}
}

func TestHalfNaN(t *testing.T) {
	nan := float32(math.NaN())
	if !math.IsNaN(float64(halfToFloat32(float32ToHalf(nan)))) {
		t.Fatal("NaN round trip failed")
	}
}

func TestHalfSubnormals(t *testing.T) {
	// Smallest positive subnormal half = 2^-24.
	tiny := float32(math.Ldexp(1, -24))
	if got := RoundHalf(tiny); got != tiny {
		t.Fatalf("subnormal %v round trip = %v", tiny, got)
	}
	// Below half the smallest subnormal: flush to zero.
	if got := RoundHalf(float32(math.Ldexp(1, -26))); got != 0 {
		t.Fatalf("deep underflow = %v, want 0", got)
	}
}

func TestHalfRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties to even → 1.
	v := float32(1 + math.Ldexp(1, -11))
	if got := RoundHalf(v); got != 1 {
		t.Fatalf("tie-to-even got %v, want 1", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even → 1+2^-9.
	v = float32(1 + 3*math.Ldexp(1, -11))
	want := float32(1 + math.Ldexp(1, -9))
	if got := RoundHalf(v); got != want {
		t.Fatalf("tie-to-even got %v, want %v", got, want)
	}
}

func TestHalfRelativeError(t *testing.T) {
	rng := NewRNG(123)
	for i := 0; i < 10000; i++ {
		v := float32(rng.NormFloat64() * 10)
		if v == 0 {
			continue
		}
		r := RoundHalf(v)
		relErr := math.Abs(float64(r-v)) / math.Abs(float64(v))
		// binary16 has 11 bits of significand → rel. error <= 2^-11.
		if relErr > math.Ldexp(1, -11) {
			t.Fatalf("RoundHalf(%v) = %v, rel err %v too large", v, r, relErr)
		}
	}
}

// Property: RoundHalf is idempotent — quantizing twice equals quantizing once.
func TestQuickHalfIdempotent(t *testing.T) {
	f := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		if math.IsNaN(float64(v)) {
			return true // NaN payloads are not preserved; skip
		}
		once := RoundHalf(v)
		twice := RoundHalf(once)
		return once == twice || (math.IsNaN(float64(once)) && math.IsNaN(float64(twice)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every encodable half value decodes and re-encodes to itself.
func TestHalfBijectionOnHalfValues(t *testing.T) {
	for bits := 0; bits <= 0xffff; bits++ {
		h := uint16(bits)
		f := halfToFloat32(h)
		if math.IsNaN(float64(f)) {
			continue // all NaNs collapse to the canonical quiet NaN
		}
		back := float32ToHalf(f)
		if back != h {
			t.Fatalf("half %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestQuantizeHalfMatrix(t *testing.T) {
	m := randMatrix(77, 8, 8)
	q := QuantizeHalf(m.Clone())
	for i, v := range q.Data {
		if v != RoundHalf(m.Data[i]) {
			t.Fatalf("QuantizeHalf element %d mismatch", i)
		}
	}
}

func TestQuantizeHalfVec(t *testing.T) {
	v := []float32{1.00048828125, 3.14159, -2.71828}
	q := CloneVec(v)
	QuantizeHalfVec(q)
	for i := range v {
		if q[i] != RoundHalf(v[i]) {
			t.Fatalf("QuantizeHalfVec element %d mismatch", i)
		}
	}
}
