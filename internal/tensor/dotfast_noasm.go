//go:build !amd64 || purego

package tensor

// Fast-tier dispatch without amd64 assembly (or under -tags=purego): every
// entry reports unavailable and the portable float32-accumulation loops in
// dotfast.go define the tier's semantics.

func dotFast(a, b []float32) (float32, bool) {
	_, _ = a, b
	return 0, false
}

func dotSegFast(vals []float32, rows []int32, nc int, b, y []float32) int {
	_, _, _, _, _ = vals, rows, nc, b, y
	return 0
}

func dotBatchChunk8Fast(a, bp []float32, stride int, out *[8]float32) bool {
	_, _, _, _ = a, bp, stride, out
	return false
}
