package tensor

import "testing"

// rolledDot is the specification of the exact-tier float kernels: one float64
// accumulator, terms added in index order, nothing unrolled.
func rolledDot(a, b []float32) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// TestDotKernelsBitIdentical: the single and paired kernels must return
// exactly the rolled loop's bits at every length around their unroll tails —
// the property the packed execution backend's determinism argument rests on.
func TestDotKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	for n := 0; n <= 67; n++ {
		a0 := make([]float32, n)
		a1 := make([]float32, n)
		b := make([]float32, n)
		for i := range b {
			a0[i] = float32(rng.NormFloat64())
			a1[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		want0, want1 := rolledDot(a0, b), rolledDot(a1, b)
		if got := DotF64(a0, b); got != want0 {
			t.Fatalf("n=%d DotF64 = %v, rolled = %v", n, got, want0)
		}
		if g0, g1 := DotPairF64(a0, a1, b); g0 != want0 || g1 != want1 {
			t.Fatalf("n=%d DotPairF64 = (%v,%v), rolled = (%v,%v)", n, g0, g1, want0, want1)
		}
	}
}

// TestDotF64MatchesDot keeps the float32 wrapper and the float64 kernels
// consistent.
func TestDotF64MatchesDot(t *testing.T) {
	rng := NewRNG(12)
	a := make([]float32, 37)
	b := make([]float32, 37)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	if got, want := float32(DotF64(a, b)), Dot(a, b); got != want {
		t.Fatalf("DotF64 %v vs Dot %v", got, want)
	}
}
