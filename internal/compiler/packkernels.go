package compiler

import "rtmobile/internal/tensor"

// Segment kernels. A packed program's kernel tier is fixed when it is built;
// bind resolves it once into the two functions the run loops call per
// segment, so the hot path never branches on it. Storage never reaches this
// file: a quantized program holds its dequantized float32 values. Every
// exact-tier kernel accumulates each (row, lane) output in a single float64
// in index order — the paired and SIMD kernels in internal/tensor all keep
// that order — so which of them a segment's rows reach never changes a byte
// of output.

// segKernel accumulates one segment's row dots into y: row i of the segment
// keeps its nc weights at value offset off+i*nc and adds their dot with the
// gathered input g to y[rows[i]].
type segKernel func(y []float32, rows []int32, off, nc int, g []float32)

// segBatchKernel is segKernel over a bw-wide panel: g is the gathered input
// panel (nc×bw, lane-contiguous) and row i adds its bw dots to
// y[rows[i]*bw : (rows[i]+1)*bw]. Each weight is streamed once for all
// lanes. s lends the per-lane accumulators.
type segBatchKernel func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch)

// bind resolves the program's tier to its segment kernels. Every
// constructor ends here.
func (p *PackedProgram) bind() {
	p.seg, p.segBatch = f32Kernels(p.Vals, p.Precision == PrecisionFast)
}

// addF64 adds a lane accumulator row, rounded to float32, into out.
func addF64(out []float32, acc []float64) {
	for l := range out {
		out[l] += float32(acc[l])
	}
}

// addF32 adds a fast-tier lane accumulator row into out.
func addF32(out, acc []float32) {
	for l := range out {
		out[l] += acc[l]
	}
}

// f32Kernels returns the segment kernels of a program.
//
// Exact tier: the whole-segment driver takes every full group of eight rows
// — one float64 lane per row on the AVX2 across-rows kernel, nothing without
// it — and the remainder (or the whole segment on a portable build) goes
// through the paired kernel, two accumulators sharing each conversion of the
// gathered input, then the single-row one. Panels pair rows the same way; the
// strided tensor kernels run full eight-lane chunks on the AVX2 across-lane
// kernel when the host has it and everything else on the portable one.
//
// Fast tier: the whole segment runs through the FMA'd f32-accumulation
// segment driver when the host has it, and any remainder (or the no-SIMD
// case) falls to per-row fast dots with the same f32 index-order semantics;
// panels FMA-broadcast each weight against all lanes with per-lane float32
// accumulators (the tensor kernels dispatch SIMD vs portable internally).
func f32Kernels(vals []float32, fast bool) (segKernel, segBatchKernel) {
	if fast {
		seg := func(y []float32, rows []int32, off, nc int, g []float32) {
			v := vals[off : off+len(rows)*nc]
			ri := tensor.DotSegFastF32(v, rows, g, y)
			for ; ri < len(rows); ri++ {
				y[rows[ri]] += tensor.DotFastF32(v[ri*nc:ri*nc+nc], g)
			}
		}
		batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
			v, facc := vals[off:off+len(rows)*nc], s.facc[:bw]
			for ri, r := range rows {
				tensor.DotBatchFastF32Strided(v[ri*nc:(ri+1)*nc], g, bw, facc)
				addF32(y[int(r)*bw:(int(r)+1)*bw], facc)
			}
		}
		return seg, batch
	}
	seg := func(y []float32, rows []int32, off, nc int, g []float32) {
		v := vals[off : off+len(rows)*nc]
		ri := tensor.DotSegF64(v, rows, g, y)
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := tensor.DotPairF64(v[ri*nc:ri*nc+nc], v[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(tensor.DotF64(v[ri*nc:ri*nc+nc], g))
		}
	}
	batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
		v := vals[off : off+len(rows)*nc]
		acc0, acc1 := s.acc[:bw], s.acc[bw:2*bw]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			tensor.DotBatchPairF64Strided(v[ri*nc:(ri+1)*nc], v[(ri+1)*nc:(ri+2)*nc], g, bw, acc0, acc1)
			addF64(y[int(rows[ri])*bw:(int(rows[ri])+1)*bw], acc0)
			addF64(y[int(rows[ri+1])*bw:(int(rows[ri+1])+1)*bw], acc1)
		}
		if ri < len(rows) {
			tensor.DotBatchF64Strided(v[ri*nc:(ri+1)*nc], g, bw, acc0)
			addF64(y[int(rows[ri])*bw:(int(rows[ri])+1)*bw], acc0)
		}
	}
	return seg, batch
}
