package tensor

// Batched (SpMM-style) inner-product kernels. A panel packs B input vectors
// column-major: element i of lane l lives at bp[i*bw+l], so one weight value
// a[i] is loaded (and converted to float64) once and multiplied against all
// B lanes while their elements sit in one contiguous cache line. That is the
// whole point of batching — arithmetic intensity grows with B instead of
// staying pinned at one MAC per loaded weight — and it is how GRIM and
// CSB-RNN turn pruned single-stream kernels into serving throughput.
//
// Determinism contract (same as dot.go): each lane accumulates in its own
// float64 accumulator with terms added in strictly increasing index order,
// so lane l's result is bit-identical to DotF64(a, x_l) on the portable and
// the AVX2 path alike. Batch width changes data layout, never summation
// order.

// dotBatchChunkGeneric is the portable strided chunk kernel: for each lane
// l < len(out), out[l] = Σ_i a[i]*bp[i*stride+l], one float64 accumulator
// per lane fed in increasing i order. Four weights are converted per pass
// over the lanes, so each accumulator is loaded and stored once per four
// terms; it is what every panel narrower than eight lanes runs, and every
// panel on a build without the vector kernel.
func dotBatchChunkGeneric(a, bp []float32, stride int, out []float64) {
	for l := range out {
		out[l] = 0
	}
	w := len(out)
	i := 0
	for ; i+4 <= len(a); i += 4 {
		va0, va1, va2, va3 := float64(a[i]), float64(a[i+1]), float64(a[i+2]), float64(a[i+3])
		r0 := bp[i*stride : i*stride+w]
		r1 := bp[(i+1)*stride : (i+1)*stride+w]
		r2 := bp[(i+2)*stride : (i+2)*stride+w]
		r3 := bp[(i+3)*stride : (i+3)*stride+w]
		for l := range out {
			s := out[l]
			s += va0 * float64(r0[l])
			s += va1 * float64(r1[l])
			s += va2 * float64(r2[l])
			s += va3 * float64(r3[l])
			out[l] = s
		}
	}
	for ; i < len(a); i++ {
		va := float64(a[i])
		row := bp[i*stride : i*stride+w]
		for l, x := range row {
			out[l] += va * float64(x)
		}
	}
}

// DotBatchF64Strided computes out[l] = Σ_i a[i]*bp[i*stride+l] for every
// lane l in [0, len(out)); the panel stride is decoupled from the lane count,
// so a wide panel can be processed in lane chunks. Full eight-lane chunks go
// through the AVX2 kernel when BatchSIMD reports it available; per-lane
// summation order is identical on both paths, so the result is always
// bit-identical to DotF64 on lane l's gathered vector.
func DotBatchF64Strided(a, bp []float32, stride int, out []float64) {
	lane0 := 0
	if len(a) > 0 { // an empty row may come with an empty panel: nothing to slice
		for ; lane0+8 <= len(out); lane0 += 8 {
			if !dotBatchChunk8(a, bp[lane0:], stride, (*[8]float64)(out[lane0:lane0+8])) {
				break
			}
		}
	}
	if lane0 < len(out) {
		dotBatchChunkGeneric(a, bp[lane0:], stride, out[lane0:])
	}
}

// DotBatchPairF64Strided computes DotBatchF64Strided for two equal-length
// weight rows a0 and a1 over one shared panel, writing out0 and out1
// (len(out0) == len(out1) lanes). When the AVX2 kernel is active, full
// eight-lane chunks convert each panel column once for both rows and run
// four independent accumulator chains, which roughly doubles throughput
// over two single-row calls; each row's per-lane summation order is
// unchanged, so both outputs stay bit-identical to DotBatchF64Strided.
func DotBatchPairF64Strided(a0, a1, bp []float32, stride int, out0, out1 []float64) {
	if len(a0) != len(a1) || len(out0) != len(out1) {
		panic("tensor: DotBatchPairF64Strided row/lane length mismatch")
	}
	lane0 := 0
	if len(a0) > 0 {
		for ; lane0+8 <= len(out0); lane0 += 8 {
			if !dotBatchPair8(a0, a1, bp[lane0:], stride,
				(*[8]float64)(out0[lane0:lane0+8]), (*[8]float64)(out1[lane0:lane0+8])) {
				break
			}
		}
	}
	if lane0 < len(out0) {
		dotBatchChunkGeneric(a0, bp[lane0:], stride, out0[lane0:])
		dotBatchChunkGeneric(a1, bp[lane0:], stride, out1[lane0:])
	}
}
