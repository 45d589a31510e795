//go:build !amd64 || purego

package tensor

// dotSegF64 has no vector implementation on this build; callers fall back
// to the portable pair and single-row dots.
func dotSegF64(vals []float32, rows []int32, nc int, g, y []float32) int {
	_, _, _, _, _ = vals, rows, nc, g, y
	return 0
}
