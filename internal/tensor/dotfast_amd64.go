//go:build amd64 && !purego

package tensor

// Dispatch for the relaxed-precision fast kernels. Unlike the exact-tier
// dispatch (simd_amd64.go), these require FMA in addition to AVX2 — the
// whole point of the tier is the fused multiply-add — and the float32 dot
// additionally upgrades to the AVX-512 kernel on CPUs with usable zmm
// state. See dotfast_amd64.s for the kernels.

//go:noescape
func dotFastAVX(a, b *float32, n int) float32

//go:noescape
func dotFastAVX512(a, b *float32, n int) float32

//go:noescape
func dotSegFastAVX(vals *float32, rows *int32, nr, nc int, b, y *float32)

//go:noescape
func dotBatchChunk8FastAVX(a, bp *float32, n, strideBytes int, out *[8]float32)

// fastAVX512MinLen gates the zmm dot: below two full zmm iterations the
// wider vectors only add reduce overhead.
const fastAVX512MinLen = 64

// dotFast runs the vector f32 dot; ok is false when the fast vector path is
// unavailable and the caller must use the portable loop.
func dotFast(a, b []float32) (float32, bool) {
	if !fastSIMD || len(a) == 0 {
		return 0, false
	}
	if fastSIMD512 && len(a) >= fastAVX512MinLen {
		return dotFastAVX512(&a[0], &b[0], len(a)), true
	}
	return dotFastAVX(&a[0], &b[0], len(a)), true
}

// dotSegFast runs the segment-level fast f32 driver, returning rows
// consumed (len(rows), or 0 when unavailable). Caller guarantees
// len(vals) == len(rows)·nc, nc > 0, len(rows) > 0.
func dotSegFast(vals []float32, rows []int32, nc int, b, y []float32) int {
	if !fastSIMD {
		return 0
	}
	dotSegFastAVX(&vals[0], &rows[0], len(rows), nc, &b[0], &y[0])
	return len(rows)
}

// dotBatchChunk8Fast runs the fast asm kernel over one eight-lane chunk.
// Same caller contract and fallback semantics as dotBatchChunk8.
func dotBatchChunk8Fast(a, bp []float32, stride int, out *[8]float32) bool {
	if !fastSIMD {
		return false
	}
	if len(a) == 0 {
		*out = [8]float32{}
		return true
	}
	dotBatchChunk8FastAVX(&a[0], &bp[0], len(a), stride*4, out)
	return true
}
