package tensor

// Quantized inner-product kernels: int8/int16 weights, float32 activations,
// float64 accumulation. Each weight is dequantized in-register —
// wd = float64(scale) * float64(q) — and the term wd * float64(x) is added in
// strictly increasing index order, so every kernel returns bit-identical
// results to a scalar reference that dequantizes to float64 and then dots.
// Both conversions (intN→float64 and float32→float64) are exact, and the
// scale multiply happens once per weight element before the activation
// multiply, which pins the rounding sequence on the portable and the AVX2
// path alike.
//
// The portable bodies are generic over the storage width; only the assembly
// entry points exist per type. These kernels back the compiler's quantized
// packed programs (internal/compiler/packkernels.go): the weight stream
// shrinks 2–4× versus float32 while the accumulator contract of dot.go is
// preserved exactly.

// QInt is the integer storage of a quantized weight stream: int8 for 8-bit
// formats, int16 for the 12- and 16-bit ones.
type QInt interface{ int8 | int16 }

// DotQF32 returns the sum of (scale·a[i])·b[i] in index order. Panics if
// len(a) > len(b); extra b entries are ignored.
func DotQF32[T QInt](a []T, scale float32, b []float32) float64 {
	b = b[:len(a)]
	sc := float64(scale)
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += (sc * float64(a[i])) * float64(b[i])
		s += (sc * float64(a[i+1])) * float64(b[i+1])
		s += (sc * float64(a[i+2])) * float64(b[i+2])
		s += (sc * float64(a[i+3])) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s += (sc * float64(a[i])) * float64(b[i])
	}
	return s
}

// DotPairQF32 computes two quantized dots against one shared right-hand
// side. Each accumulator's order matches DotQF32.
func DotPairQF32[T QInt](a0, a1 []T, sc0, sc1 float32, b []float32) (float64, float64) {
	n := len(b)
	a0, a1 = a0[:n], a1[:n]
	c0, c1 := float64(sc0), float64(sc1)
	s0, s1 := 0.0, 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		v0, v1, v2, v3 := float64(b[i]), float64(b[i+1]), float64(b[i+2]), float64(b[i+3])
		s0 += (c0 * float64(a0[i])) * v0
		s0 += (c0 * float64(a0[i+1])) * v1
		s0 += (c0 * float64(a0[i+2])) * v2
		s0 += (c0 * float64(a0[i+3])) * v3
		s1 += (c1 * float64(a1[i])) * v0
		s1 += (c1 * float64(a1[i+1])) * v1
		s1 += (c1 * float64(a1[i+2])) * v2
		s1 += (c1 * float64(a1[i+3])) * v3
	}
	for ; i < n; i++ {
		v := float64(b[i])
		s0 += (c0 * float64(a0[i])) * v
		s1 += (c1 * float64(a1[i])) * v
	}
	return s0, s1
}

// dotQuadQ is the portable four-row kernel: four independent accumulators
// advance in lockstep over one b stream, so each row's summation order is
// exactly DotQF32's. Its four chains already fill the pipeline; unrolling
// the column loop on top measured slower (DESIGN.md). All four rows must be
// len(b) long.
func dotQuadQ[T QInt](a0, a1, a2, a3 []T, sc *[4]float64, b []float32) (out [4]float64) {
	a0, a1, a2, a3 = a0[:len(b)], a1[:len(b)], a2[:len(b)], a3[:len(b)]
	c0, c1, c2, c3 := sc[0], sc[1], sc[2], sc[3]
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	for i, x := range b {
		v := float64(x)
		s0 += (c0 * float64(a0[i])) * v
		s1 += (c1 * float64(a1[i])) * v
		s2 += (c2 * float64(a2[i])) * v
		s3 += (c3 * float64(a3[i])) * v
	}
	return [4]float64{s0, s1, s2, s3}
}

// DotQuadQ8F32 computes four quantized dots against one shared right-hand
// side. Vectorizing across rows (the AVX2 path keeps all four float64
// accumulators in one ymm) can never reorder a single accumulator, so both
// paths return DotQF32's bits per row. This is the serial hot-path kernel:
// the packed executor hands it four consecutive segment rows at a time.
func DotQuadQ8F32(a0, a1, a2, a3 []int8, sc0, sc1, sc2, sc3 float32, b []float32) (float64, float64, float64, float64) {
	n := len(b)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	sc := [4]float64{float64(sc0), float64(sc1), float64(sc2), float64(sc3)}
	var out [4]float64
	if n == 0 || !dotQuadQ8(a0, a1, a2, a3, &sc, b, &out) {
		out = dotQuadQ(a0, a1, a2, a3, &sc, b)
	}
	return out[0], out[1], out[2], out[3]
}

// DotQuadQ16F32 is DotQuadQ8F32 over int16 storage.
func DotQuadQ16F32(a0, a1, a2, a3 []int16, sc0, sc1, sc2, sc3 float32, b []float32) (float64, float64, float64, float64) {
	n := len(b)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	sc := [4]float64{float64(sc0), float64(sc1), float64(sc2), float64(sc3)}
	var out [4]float64
	if n == 0 || !dotQuadQ16(a0, a1, a2, a3, &sc, b, &out) {
		out = dotQuadQ(a0, a1, a2, a3, &sc, b)
	}
	return out[0], out[1], out[2], out[3]
}

// DotSegQuadQ8F32 runs the whole-segment quad driver: vals is a row-major
// int8 panel (row k of the segment at vals[k·len(g):(k+1)·len(g)]), and for
// each run of four rows it accumulates y[rows[k]] += float32(dot_k) with
// dot_k computed exactly as DotQuadQ8F32 — same order, same bytes. It returns
// the number of rows consumed: a multiple of four on the AVX2 path, 0 when no
// vector unit is available (the caller then takes the per-group kernels,
// which produce identical bytes). The single call per segment exists to
// amortize call overhead across all of a segment's rows — on narrow segments
// that overhead rivals the arithmetic. The caller must guarantee that every
// rows[k] is a valid index into both scales and y; the indices are trusted
// past this boundary.
func DotSegQuadQ8F32(vals []int8, rows []int32, scales, g, y []float32) int {
	nc := len(g)
	if nc == 0 || len(rows) < 4 {
		return 0
	}
	return dotSegQuadQ8(vals[:len(rows)*nc], rows, nc, scales, g, y)
}

// DotSegQuadQ16F32 is DotSegQuadQ8F32 over int16 storage.
func DotSegQuadQ16F32(vals []int16, rows []int32, scales, g, y []float32) int {
	nc := len(g)
	if nc == 0 || len(rows) < 4 {
		return 0
	}
	return dotSegQuadQ16(vals[:len(rows)*nc], rows, nc, scales, g, y)
}
