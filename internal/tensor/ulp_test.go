package tensor

import (
	"math"
	"testing"
)

func TestULPDiff32Boundaries(t *testing.T) {
	tiny := float32(math.SmallestNonzeroFloat32) // smallest denormal
	cases := []struct {
		name string
		a, b float32
		want uint64
	}{
		{"equal", 1.5, 1.5, 0},
		{"zeros", 0, float32(math.Copysign(0, -1)), 0},
		{"adjacent", 1, math.Nextafter32(1, 2), 1},
		{"adjacent down", 1, math.Nextafter32(1, 0), 1},
		{"denormal adjacent", 0, tiny, 1},
		{"denormal pair", tiny, 2 * tiny, 1},
		{"sign flip through zero", tiny, -tiny, 2},
		{"neg zero to denormal", float32(math.Copysign(0, -1)), tiny, 1},
		{"denormal-normal boundary", math.Nextafter32(minNormal32(), 0), minNormal32(), 1},
		{"exponent step", 2, math.Nextafter32(2, 3), 1},
	}
	for _, c := range cases {
		if got := ULPDiff32(c.a, c.b); got != c.want {
			t.Errorf("%s: ULPDiff32(%g, %g) = %d, want %d", c.name, c.a, c.b, got, c.want)
		}
		if got := ULPDiff32(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): ULPDiff32(%g, %g) = %d, want %d", c.name, c.b, c.a, got, c.want)
		}
	}
}

// minNormal32 is the smallest positive normal float32 (2^-126).
func minNormal32() float32 { return math.Float32frombits(0x00800000) }

func TestULPDiff32NaNInf(t *testing.T) {
	nan := float32(math.NaN())
	if got := ULPDiff32(nan, 1); got != math.MaxUint64 {
		t.Errorf("ULPDiff32(NaN, 1) = %d, want MaxUint64", got)
	}
	if got := ULPDiff32(1, nan); got != math.MaxUint64 {
		t.Errorf("ULPDiff32(1, NaN) = %d, want MaxUint64", got)
	}
	if got := ULPDiff32(nan, nan); got != math.MaxUint64 {
		t.Errorf("ULPDiff32(NaN, NaN) = %d, want MaxUint64", got)
	}
	// +Inf sits one past MaxFloat32 on the integer line.
	inf := float32(math.Inf(1))
	if got := ULPDiff32(inf, math.MaxFloat32); got != 1 {
		t.Errorf("ULPDiff32(+Inf, MaxFloat32) = %d, want 1", got)
	}
}

func TestFastCloseArms(t *testing.T) {
	// Bit-equal always passes, even for values the bounds would reject.
	if !fastClose(3e8, 3e8, 0, 0) {
		t.Error("fastClose rejected bit-equal values")
	}
	// ULP arm: a few ULPs on a large magnitude is a huge absolute gap.
	big := float32(1e30)
	bigUp := math.Nextafter32(math.Nextafter32(big, 2e30), 2e30)
	if !fastClose(bigUp, big, 4, 0) {
		t.Error("fastClose ULP arm rejected a 2-ULP gap at 1e30")
	}
	if fastClose(bigUp, big, 1, 0) {
		t.Error("fastClose accepted a 2-ULP gap with a 1-ULP budget and no atol")
	}
	// Absolute arm: cancellation leaves a tiny result whose ULP distance is
	// enormous but whose absolute error is within the forward bound.
	if !fastClose(1e-6, -1e-6, 4, 1e-5) {
		t.Error("fastClose atol arm rejected a cancellation-scale gap")
	}
	if fastClose(1e-6, -1e-6, 4, 1e-7) {
		t.Error("fastClose accepted a gap above both budgets")
	}
}
