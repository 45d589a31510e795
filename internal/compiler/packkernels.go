package compiler

import "rtmobile/internal/tensor"

// Segment kernels. Storage never reaches this file: a quantized program
// holds its dequantized float32 values. Every kernel accumulates each
// (row, lane) output in a single float64 in index order — the paired and
// SIMD kernels in internal/tensor all keep that order — so which of them a
// segment's rows reach never changes a byte of output.

// addF64 adds a lane accumulator row, rounded to float32, into out.
func addF64(out []float32, acc []float64) {
	for l := range out {
		out[l] += float32(acc[l])
	}
}

// seg accumulates one segment's row dots into y: row i of the segment keeps
// its nc weights at value offset off+i*nc and adds their dot with the
// gathered input g to y[rows[i]]. The whole-segment driver takes every full
// group of eight rows — one float64 lane per row on the AVX2 across-rows
// kernel, nothing without it — and the remainder (or the whole segment on a
// portable build) goes through the paired kernel, two accumulators sharing
// each conversion of the gathered input, then the single-row one.
func (p *PackedProgram) seg(y []float32, rows []int32, off, nc int, g []float32) {
	v := p.Vals[off : off+len(rows)*nc]
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

// segBatch is seg over a bw-wide panel: g is the gathered input panel
// (nc×bw, lane-contiguous) and row i adds its bw dots to
// y[rows[i]*bw : (rows[i]+1)*bw]. Each weight is streamed once for all
// lanes, and rows pair as in seg; the strided tensor kernels run full
// eight-lane chunks on the AVX2 across-lane kernel when the host has it and
// everything else on the portable one. s lends the per-lane accumulators.
func (p *PackedProgram) segBatch(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
	v := p.Vals[off : off+len(rows)*nc]
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
