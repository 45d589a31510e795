package tensor

// Exact-tier inner-product kernels. Every kernel accumulates in float64 and
// adds terms in strictly increasing index order — the operation sequence of
// a rolled loop, which is their specification — so the four-way unrolled
// bodies below return its bits exactly. The unrolling only removes
// loop-condition and bounds-check overhead: one row's float64 chain is
// bound by the add latency however it is unrolled (DESIGN.md has the
// measurements behind keeping one body per shape), and the pair kernel's
// second chain plus its shared conversion of the right-hand vector is as
// far as scalar code gets. What does go faster is running more chains at
// once without touching any of them: DotSegF64 gives each of eight rows one
// lane of the vector unit (≈ 3.7× the pair kernel's MACs/s on a 96×48
// segment). The portable kernels stay the specification it is tested
// against, the remainder path behind it, and the only kernels a build
// without AVX2 runs.
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

// DotSegF64 runs the exact-tier float32 whole-segment driver: vals is a
// row-major float32 panel (row k of the segment at vals[k·len(g):(k+1)·len(g)]),
// and for each run of eight rows it accumulates y[rows[k]] += float32(dot_k)
// in row-list order with dot_k computed exactly as DotF64(row k, g) — the
// AVX2 path vectorizes across the eight rows, one float64 lane each, so no
// row's summation order changes. It returns the number of rows consumed: a
// multiple of eight on the AVX2 path, 0 when no vector unit is available;
// the caller finishes the remaining rows with DotPairF64/DotF64, which
// produce identical bytes. No load passes the end of vals[:len(rows)·len(g)]
// or of g. The caller must guarantee that every rows[k] is a valid index
// into y; the indices are trusted past this boundary.
func DotSegF64(vals []float32, rows []int32, g, y []float32) int {
	nc := len(g)
	if nc == 0 || len(rows) < 8 {
		return 0
	}
	return dotSegF64(vals[:len(rows)*nc], rows, nc, g, y)
}
