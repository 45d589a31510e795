package tensor

// Exact-tier inner-product kernels. Every kernel accumulates in float64 and
// adds terms in strictly increasing index order — the operation sequence of
// a rolled loop, which is their specification — so the four-way unrolled
// bodies below return its bits exactly. The unrolling only removes
// loop-condition and bounds-check overhead (the float64 chain is
// latency-bound either way; DESIGN.md has the measurements behind keeping
// one body per shape); the pair kernel additionally shares one float64
// conversion of the right-hand vector between two accumulators, which is the
// dominant cost of a float32 dot with a float64 accumulator.
//
// These kernels back the compiler's packed execution backend
// (internal/compiler/packkernels.go) and the BSPC SpMV (internal/sparse);
// keeping them here lets both packages share one audited implementation.

// DotF64 returns the sum of a[i]*b[i] in index order. Panics if
// len(a) > len(b); extra b entries are ignored.
func DotF64(a, b []float32) float64 {
	b = b[:len(a)]
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += float64(a[i]) * float64(b[i])
		s += float64(a[i+1]) * float64(b[i+1])
		s += float64(a[i+2]) * float64(b[i+2])
		s += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// DotPairF64 computes two dots against one shared right-hand side. Each
// accumulator's order matches DotF64.
func DotPairF64(a0, a1, b []float32) (float64, float64) {
	n := len(b)
	a0, a1 = a0[:n], a1[:n]
	s0, s1 := 0.0, 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		v0, v1, v2, v3 := float64(b[i]), float64(b[i+1]), float64(b[i+2]), float64(b[i+3])
		s0 += float64(a0[i]) * v0
		s0 += float64(a0[i+1]) * v1
		s0 += float64(a0[i+2]) * v2
		s0 += float64(a0[i+3]) * v3
		s1 += float64(a1[i]) * v0
		s1 += float64(a1[i+1]) * v1
		s1 += float64(a1[i+2]) * v2
		s1 += float64(a1[i+3]) * v3
	}
	for ; i < n; i++ {
		v := float64(b[i])
		s0 += float64(a0[i]) * v
		s1 += float64(a1[i]) * v
	}
	return s0, s1
}
