//go:build amd64 && !purego

package tensor

// AVX2 dispatch for the exact-tier float32 segment driver: eight rows per
// group, one float64 lane each — see dotseg_amd64.s.

//go:noescape
func dotSegF64AVX(vals *float32, rows *int32, groups, nc int, b, y *float32)

// dotSegF64 runs the segment-level asm driver over groups of eight rows,
// returning the number of rows consumed (0 when SIMD is unavailable and the
// caller must fall back to the per-row path). The caller guarantees
// len(vals) ≥ len(rows)·nc, len(g) == nc > 0, and every rows[k] indexes y.
func dotSegF64(vals []float32, rows []int32, nc int, g, y []float32) int {
	groups := len(rows) / 8
	if !feat.AVX2 || groups == 0 {
		return 0
	}
	dotSegF64AVX(&vals[0], &rows[0], groups, nc, &g[0], &y[0])
	return groups * 8
}
