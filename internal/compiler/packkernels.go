package compiler

import (
	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// Segment kernels. A packed program's value storage (float32, int8, int16)
// and kernel tier are fixed when it is built; bind resolves them once into
// the two functions the lane loops call per segment, so the hot path never
// branches on either. Every exact-tier kernel accumulates each (row, lane)
// output in a single float64 in index order — the paired, quad and SIMD
// kernels in internal/tensor all keep that order — so which of them a
// segment's rows reach never changes a byte of output.

// segKernel accumulates one segment's row dots into y: row i of the segment
// keeps its nc weights at value offset off+i*nc and adds their dot with the
// gathered input g to y[rows[i]].
type segKernel func(y []float32, rows []int32, off, nc int, g []float32)

// segBatchKernel is segKernel over a bw-wide panel: g is the gathered input
// panel (nc×bw, lane-contiguous) and row i adds its bw dots to
// y[rows[i]*bw : (rows[i]+1)*bw]. Each weight is streamed once for all
// lanes. s lends the per-lane accumulators.
type segBatchKernel func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch)

// bind resolves the program's storage and tier to its segment kernels, span
// kind and streamed-byte count. Every constructor ends here.
func (p *PackedProgram) bind() {
	fast := p.Precision == PrecisionFast
	switch p.Bits {
	case 0:
		p.seg, p.segBatch = f32Kernels(p.Vals, fast)
		p.kind, p.streamBytes = obs.StageKernel, 4*len(p.Vals)
		if fast {
			p.kind = obs.StageKernelFast
		}
	case 8:
		p.seg, p.segBatch = quantKernels(p.Vals8, p.Scales, q8Dots, fast)
		p.kind, p.streamBytes = obs.StageKernelQ8, len(p.Vals8)
		if fast {
			p.kind = obs.StageKernelQ8Fast
		}
	default:
		p.seg, p.segBatch = quantKernels(p.Vals16, p.Scales, q16Dots, fast)
		p.kind, p.streamBytes = obs.StageKernelQ16, 2*len(p.Vals16)
		if fast {
			p.kind = obs.StageKernelQ16Fast
		}
	}
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

// f32Kernels returns the segment kernels of a float32 program.
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

// quantDots holds the tensor kernels that exist once per integer storage
// width because they enter assembly: the only thing that differs between the
// int8 and int16 executors (the portable single and paired dots are generic).
type quantDots[T tensor.QInt] struct {
	// Exact tier, serial: whole-segment quad driver (AVX2; returns the rows
	// it consumed) and the four-row dot.
	segQuad func(vals []T, rows []int32, scales, g, y []float32) int
	quad    func(a0, a1, a2, a3 []T, s0, s1, s2, s3 float32, g []float32) (float64, float64, float64, float64)
	// Exact tier, panel: single and paired rows across lanes.
	laneRow  func(a []T, s float32, g []float32, bw int, acc []float64)
	lanePair func(a0, a1 []T, s0, s1 float32, g []float32, bw int, acc0, acc1 []float64)
	// Fast tier.
	fastSeg  func(vals []T, rows []int32, scales, g, y []float32) int
	fastOne  func(a []T, s float32, g []float32) float32
	fastWide func(a []T, s float32, g []float32, bw int, facc []float32)
}

var (
	q8Dots = quantDots[int8]{
		segQuad: tensor.DotSegQuadQ8F32, quad: tensor.DotQuadQ8F32,
		laneRow: tensor.DotBatchQ8F32Strided, lanePair: tensor.DotBatchPairQ8F32Strided,
		fastSeg: tensor.DotSegQ8FastF32, fastOne: tensor.DotQ8FastF32,
		fastWide: tensor.DotQ8BatchFastF32Strided,
	}
	q16Dots = quantDots[int16]{
		segQuad: tensor.DotSegQuadQ16F32, quad: tensor.DotQuadQ16F32,
		laneRow: tensor.DotBatchQ16F32Strided, lanePair: tensor.DotBatchPairQ16F32Strided,
		fastSeg: tensor.DotSegQ16FastF32, fastOne: tensor.DotQ16FastF32,
		fastWide: tensor.DotQ16BatchFastF32Strided,
	}
)

// quantKernels returns the segment kernels of an integer program; scales is
// indexed by output row.
//
// Exact tier: runs of four rows go through the quad kernel — four
// accumulators sharing one conversion of the gathered input, carried in a
// single ymm on the AVX2 path, where the whole segment's quad runs execute
// in one segQuad call (scale lookup and y scatter included) — and the
// remainder falls to the paired/single kernels. Panels mirror the float32
// program.
//
// Fast tier: the segment driver widens the integers straight into FMA chains
// with float32 accumulation and applies each row's scale once after its
// reduce; panels widen each weight once, broadcast it, and FMA-accumulate
// against all lanes in float32.
func quantKernels[T tensor.QInt](vals []T, scales []float32, d quantDots[T], fast bool) (segKernel, segBatchKernel) {
	if fast {
		seg := func(y []float32, rows []int32, off, nc int, g []float32) {
			v := vals[off : off+len(rows)*nc]
			ri := d.fastSeg(v, rows, scales, g, y)
			for ; ri < len(rows); ri++ {
				r := rows[ri]
				y[r] += d.fastOne(v[ri*nc:ri*nc+nc], scales[r], g)
			}
		}
		batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
			v, facc := vals[off:off+len(rows)*nc], s.facc[:bw]
			for ri, r := range rows {
				d.fastWide(v[ri*nc:(ri+1)*nc], scales[r], g, bw, facc)
				addF32(y[int(r)*bw:(int(r)+1)*bw], facc)
			}
		}
		return seg, batch
	}
	seg := func(y []float32, rows []int32, off, nc int, g []float32) {
		v := vals[off : off+len(rows)*nc]
		ri := d.segQuad(v, rows, scales, g, y)
		for ; ri+4 <= len(rows); ri += 4 {
			r0, r1, r2, r3 := rows[ri], rows[ri+1], rows[ri+2], rows[ri+3]
			s0, s1, s2, s3 := d.quad(
				v[ri*nc:ri*nc+nc], v[(ri+1)*nc:(ri+1)*nc+nc],
				v[(ri+2)*nc:(ri+2)*nc+nc], v[(ri+3)*nc:(ri+3)*nc+nc],
				scales[r0], scales[r1], scales[r2], scales[r3], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
			y[r2] += float32(s2)
			y[r3] += float32(s3)
		}
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQF32(v[ri*nc:ri*nc+nc], v[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQF32(v[ri*nc:ri*nc+nc], scales[r], g))
		}
	}
	batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
		v := vals[off : off+len(rows)*nc]
		acc0, acc1 := s.acc[:bw], s.acc[bw:2*bw]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			d.lanePair(v[ri*nc:(ri+1)*nc], v[(ri+1)*nc:(ri+2)*nc], scales[r0], scales[r1], g, bw, acc0, acc1)
			addF64(y[int(r0)*bw:(int(r0)+1)*bw], acc0)
			addF64(y[int(r1)*bw:(int(r1)+1)*bw], acc1)
		}
		if ri < len(rows) {
			r := rows[ri]
			d.laneRow(v[ri*nc:(ri+1)*nc], scales[r], g, bw, acc0)
			addF64(y[int(r)*bw:(int(r)+1)*bw], acc0)
		}
	}
	return seg, batch
}
