package tensor

// Batched quantized kernels: the SpMM panel layout of dotbatch.go with the
// int8/int16 weight stream of dotq.go. One quantized weight is loaded,
// sign-extended, and dequantized to float64 (wd = scale·q) exactly once, then
// multiplied against all B lanes of the panel — so the weight-bytes streamed
// per MAC shrink by another 2–4× on top of the batching win. Per-lane
// accumulation order is unchanged: lane l is bit-identical to DotQF32 on its
// gathered vector, on the portable and the AVX2 path alike.

// dotQBatchChunkGeneric is the portable strided chunk kernel for integer
// weights: out[l] = Σ_i (sc·a[i])·bp[i*stride+l] per lane, the loop shape of
// dotBatchChunkGeneric.
func dotQBatchChunkGeneric[T QInt](a []T, sc float64, bp []float32, stride int, out []float64) {
	for l := range out {
		out[l] = 0
	}
	w := len(out)
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0, w1, w2, w3 := sc*float64(a[i]), sc*float64(a[i+1]), sc*float64(a[i+2]), sc*float64(a[i+3])
		r0 := bp[i*stride : i*stride+w]
		r1 := bp[(i+1)*stride : (i+1)*stride+w]
		r2 := bp[(i+2)*stride : (i+2)*stride+w]
		r3 := bp[(i+3)*stride : (i+3)*stride+w]
		for l := range out {
			s := out[l]
			s += w0 * float64(r0[l])
			s += w1 * float64(r1[l])
			s += w2 * float64(r2[l])
			s += w3 * float64(r3[l])
			out[l] = s
		}
	}
	for ; i < len(a); i++ {
		wd := sc * float64(a[i])
		row := bp[i*stride : i*stride+w]
		for l, x := range row {
			out[l] += wd * float64(x)
		}
	}
}

// dotQBatchStrided is the lane-chunk driver behind the single-row entry
// points: full eight-lane chunks go to chunk8 (the storage width's AVX2
// kernel, which reports false when it is unavailable), the remaining lanes
// to the portable chunk kernel in one call.
func dotQBatchStrided[T QInt](a []T, scale float32, bp []float32, stride int, out []float64,
	chunk8 func(a []T, sc float64, bp []float32, stride int, out *[8]float64) bool) {
	sc := float64(scale)
	lane0 := 0
	if len(a) > 0 { // an empty row may come with an empty panel: nothing to slice
		for ; lane0+8 <= len(out); lane0 += 8 {
			if !chunk8(a, sc, bp[lane0:], stride, (*[8]float64)(out[lane0:lane0+8])) {
				break
			}
		}
	}
	if lane0 < len(out) {
		dotQBatchChunkGeneric(a, sc, bp[lane0:], stride, out[lane0:])
	}
}

// dotQBatchPairStrided is dotQBatchStrided for two equal-length rows over
// one shared panel.
func dotQBatchPairStrided[T QInt](a0, a1 []T, sc0, sc1 float32, bp []float32, stride int, out0, out1 []float64,
	pair8 func(a0, a1 []T, sc0, sc1 float64, bp []float32, stride int, out0, out1 *[8]float64) bool) {
	if len(a0) != len(a1) || len(out0) != len(out1) {
		panic("tensor: batched pair kernel row/lane length mismatch")
	}
	c0, c1 := float64(sc0), float64(sc1)
	lane0 := 0
	if len(a0) > 0 {
		for ; lane0+8 <= len(out0); lane0 += 8 {
			if !pair8(a0, a1, c0, c1, bp[lane0:], stride,
				(*[8]float64)(out0[lane0:lane0+8]), (*[8]float64)(out1[lane0:lane0+8])) {
				break
			}
		}
	}
	if lane0 < len(out0) {
		dotQBatchChunkGeneric(a0, c0, bp[lane0:], stride, out0[lane0:])
		dotQBatchChunkGeneric(a1, c1, bp[lane0:], stride, out1[lane0:])
	}
}

// DotBatchQ8F32Strided computes out[l] = Σ_i (scale·a[i])·bp[i*stride+l] for
// every lane l in [0, len(out)). Full eight-lane chunks go through the AVX2
// widen-multiply-accumulate kernel when BatchSIMD reports it available;
// per-lane summation order is identical on both paths.
func DotBatchQ8F32Strided(a []int8, scale float32, bp []float32, stride int, out []float64) {
	dotQBatchStrided(a, scale, bp, stride, out, dotQ8BatchChunk8)
}

// DotBatchQ16F32Strided is DotBatchQ8F32Strided over int16 storage.
func DotBatchQ16F32Strided(a []int16, scale float32, bp []float32, stride int, out []float64) {
	dotQBatchStrided(a, scale, bp, stride, out, dotQ16BatchChunk8)
}

// DotBatchPairQ8F32Strided computes DotBatchQ8F32Strided for two equal-length
// int8 rows over one shared panel: full eight-lane chunks convert each panel
// column once for both rows, like DotBatchPairF64Strided.
func DotBatchPairQ8F32Strided(a0, a1 []int8, sc0, sc1 float32, bp []float32, stride int, out0, out1 []float64) {
	dotQBatchPairStrided(a0, a1, sc0, sc1, bp, stride, out0, out1, dotQ8BatchPair8)
}

// DotBatchPairQ16F32Strided is DotBatchPairQ8F32Strided over int16 storage.
func DotBatchPairQ16F32Strided(a0, a1 []int16, sc0, sc1 float32, bp []float32, stride int, out0, out1 []float64) {
	dotQBatchPairStrided(a0, a1, sc0, sc1, bp, stride, out0, out1, dotQ16BatchPair8)
}
