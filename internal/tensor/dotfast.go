package tensor

// Relaxed-precision ("fast" tier) inner-product kernels. The exact-tier
// kernels in dot.go/dotseg.go/dotbatch.go forbid FMA and carry float64
// accumulators so their bytes match the scalar reference — which costs a
// convert and a separate mul+add per element. The fast tier drops
// bit-equality for a tolerance contract (see ulp.go): float32 accumulation,
// fused multiply-adds, and split vector accumulators on the AVX2/AVX-512
// path. Weights are float32 whatever a deployment stores: a quantized
// program holds its dequantized values (internal/compiler), so no kernel
// here exists per integer width.
//
// The portable fallbacks below accumulate in float32 in index order; they
// define the tier's semantics when FastSIMD() is false (purego, non-amd64,
// or no FMA), and the asm variants must agree with the exact oracle within
// FastClose bounds, which the equivalence and fuzz suites enforce.

// DotFastF32 computes the float32-accumulated dot of a and b. On the vector
// path the sum is reassociated across split accumulators and uses FMA; the
// result is within FastULPBound(len(a))/FastDotBound of DotF64's narrow.
func DotFastF32(a, b []float32) float32 {
	b = b[:len(a)]
	if s, ok := dotFast(a, b); ok {
		return s
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// DotSegFastF32 runs a whole segment of float32 row dots through the fast
// vector kernel: for each k, y[rows[k]] += fast-dot of vals[k*nc:(k+1)*nc]
// against g (nc = len(g)). Returns the number of rows consumed — len(rows)
// on the vector path, 0 when the caller must fall back to per-row dots.
// The caller guarantees len(vals) ≥ len(rows)·nc and every rows[k] indexes y.
func DotSegFastF32(vals []float32, rows []int32, g, y []float32) int {
	nc := len(g)
	if nc == 0 || len(rows) == 0 {
		return 0
	}
	return dotSegFast(vals[:len(rows)*nc], rows, nc, g, y)
}

// dotBatchChunkFastGeneric is the portable strided fast chunk kernel: for
// each lane l < len(out), out[l] = Σ_i a[i]*bp[i*stride+l], one float32
// accumulator per lane.
func dotBatchChunkFastGeneric(a, bp []float32, stride int, out []float32) {
	for l := range out {
		out[l] = 0
	}
	for i, v := range a {
		row := bp[i*stride : i*stride+len(out)]
		for l, x := range row {
			out[l] += v * x
		}
	}
}

// DotBatchFastF32Strided computes out[l] = Σ_i a[i]*bp[i*stride+l] for every
// lane l with float32 accumulators — the fast twin of DotBatchF64Strided.
// Full eight-lane chunks go through the FMA kernel when FastSIMD reports it.
func DotBatchFastF32Strided(a, bp []float32, stride int, out []float32) {
	if len(a) == 0 {
		for l := range out {
			out[l] = 0
		}
		return
	}
	lane0 := 0
	for ; lane0+8 <= len(out); lane0 += 8 {
		o := (*[8]float32)(out[lane0 : lane0+8])
		if !dotBatchChunk8Fast(a, bp[lane0:], stride, o) {
			dotBatchChunkFastGeneric(a, bp[lane0:], stride, out[lane0:lane0+8])
		}
	}
	if lane0 < len(out) {
		dotBatchChunkFastGeneric(a, bp[lane0:], stride, out[lane0:])
	}
}
