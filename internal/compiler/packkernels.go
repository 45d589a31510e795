package compiler

import (
	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// Segment kernels. A packed program's value storage (float32, int8, int16),
// kernel tier and unroll factor are fixed when it is built; bind resolves
// them once into the two functions the lane loops call per segment, so the
// hot path never branches on any of the three. Every exact-tier variant
// accumulates each (row, lane) output in a single float64 in index order —
// unrolled, paired and SIMD kernels in internal/tensor all keep that order —
// so which variant runs never changes a byte of output.

// segKernel accumulates one segment's row dots into y: row i of the segment
// keeps its nc weights at value offset off+i*nc and adds their dot with the
// gathered input g to y[rows[i]].
type segKernel func(y []float32, rows []int32, off, nc int, g []float32)

// segBatchKernel is segKernel over a bw-wide panel: g is the gathered input
// panel (nc×bw, lane-contiguous) and row i adds its bw dots to
// y[rows[i]*bw : (rows[i]+1)*bw]. Each weight is streamed once for all
// lanes. s lends the per-lane accumulators.
type segBatchKernel func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch)

// bind resolves the program's storage, tier and unroll factor to its
// segment kernels, span kind and streamed-byte count. Every constructor
// ends here.
func (p *PackedProgram) bind() {
	fast := p.Precision == PrecisionFast
	switch p.Bits {
	case 0:
		p.seg, p.segBatch = f32Kernels(p.Vals, p.Unroll, fast)
		p.kind, p.streamBytes = obs.StageKernel, 4*len(p.Vals)
		if fast {
			p.kind = obs.StageKernelFast
		}
	case 8:
		p.seg, p.segBatch = quantKernels(p.Vals8, p.Scales, q8Dots(p.Unroll), fast)
		p.kind, p.streamBytes = obs.StageKernelQ8, len(p.Vals8)
		if fast {
			p.kind = obs.StageKernelQ8Fast
		}
	default:
		p.seg, p.segBatch = quantKernels(p.Vals16, p.Scales, q16Dots(p.Unroll), fast)
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
// Exact tier: rows are processed in pairs so two accumulators share each
// conversion of the gathered input. Wide panels go through the AVX2
// across-lane kernels when available, pairing rows the same way (the batched
// analogue of the serial pair kernels); narrower ones through the portable
// kernel of the program's unroll factor.
//
// Fast tier: the whole segment runs through the FMA'd f32-accumulation
// segment driver when the host has it, and any remainder (or the no-SIMD
// case) falls to per-row fast dots with the same f32 index-order semantics;
// panels FMA-broadcast each weight against all lanes with per-lane float32
// accumulators (the tensor kernels dispatch SIMD vs portable internally).
func f32Kernels(vals []float32, unroll int, fast bool) (segKernel, segBatchKernel) {
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
	one, pair, wide := tensor.DotF64x4, tensor.DotPairF64x4, tensor.DotBatchF64x4
	switch unroll {
	case 1:
		one, pair, wide = tensor.DotF64, tensor.DotPairF64, tensor.DotBatchF64
	case 2:
		one, pair, wide = tensor.DotF64x2, tensor.DotPairF64x2, tensor.DotBatchF64x2
	case 8:
		one, pair, wide = tensor.DotF64x8, tensor.DotPairF64x8, tensor.DotBatchF64x8
	}
	seg := func(y []float32, rows []int32, off, nc int, g []float32) {
		v := vals[off : off+len(rows)*nc]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := pair(v[ri*nc:ri*nc+nc], v[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(one(v[ri*nc:ri*nc+nc], g))
		}
	}
	batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
		v := vals[off : off+len(rows)*nc]
		if bw >= 8 && tensor.BatchSIMD() {
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
			return
		}
		acc := s.acc[:bw]
		for ri, r := range rows {
			wide(v[ri*nc:(ri+1)*nc], g, bw, acc)
			addF64(y[int(r)*bw:(int(r)+1)*bw], acc)
		}
	}
	return seg, batch
}

// qint is the integer storage of a quantized program.
type qint interface{ int8 | int16 }

// quantDots is the tensor kernel set of one integer storage width at one
// unroll factor — the only thing that differs between the int8 and int16
// executors.
type quantDots[T qint] struct {
	// Exact tier, serial: whole-segment quad driver (AVX2; returns the rows
	// it consumed), four-row, paired and single dots.
	segQuad func(vals []T, rows []int32, scales, g, y []float32) int
	quad    func(a0, a1, a2, a3 []T, s0, s1, s2, s3 float32, g []float32) (float64, float64, float64, float64)
	pair    func(a0, a1 []T, s0, s1 float32, g []float32) (float64, float64)
	one     func(a []T, s float32, g []float32) float64
	// Exact tier, panel: across-lane SIMD single and paired rows, and the
	// portable kernel of the unroll factor.
	laneRow  func(a []T, s float32, g []float32, bw int, acc []float64)
	lanePair func(a0, a1 []T, s0, s1 float32, g []float32, bw int, acc0, acc1 []float64)
	wide     func(a []T, s float32, g []float32, bw int, acc []float64)
	// Fast tier.
	fastSeg  func(vals []T, rows []int32, scales, g, y []float32) int
	fastOne  func(a []T, s float32, g []float32) float32
	fastWide func(a []T, s float32, g []float32, bw int, facc []float32)
}

func q8Dots(unroll int) quantDots[int8] {
	d := quantDots[int8]{
		segQuad: tensor.DotSegQuadQ8F32, quad: tensor.DotQuadQ8F32,
		pair: tensor.DotPairQ8F32x4, one: tensor.DotQ8F32x4,
		laneRow: tensor.DotBatchQ8F32Strided, lanePair: tensor.DotBatchPairQ8F32Strided,
		wide:    tensor.DotBatchQ8F32x4,
		fastSeg: tensor.DotSegQ8FastF32, fastOne: tensor.DotQ8FastF32,
		fastWide: tensor.DotQ8BatchFastF32Strided,
	}
	switch unroll {
	case 1:
		d.pair, d.one, d.wide = tensor.DotPairQ8F32, tensor.DotQ8F32, tensor.DotBatchQ8F32
	case 2:
		d.pair, d.one, d.wide = tensor.DotPairQ8F32x2, tensor.DotQ8F32x2, tensor.DotBatchQ8F32x2
	case 8:
		d.pair, d.one, d.wide = tensor.DotPairQ8F32x8, tensor.DotQ8F32x8, tensor.DotBatchQ8F32x8
	}
	return d
}

func q16Dots(unroll int) quantDots[int16] {
	d := quantDots[int16]{
		segQuad: tensor.DotSegQuadQ16F32, quad: tensor.DotQuadQ16F32,
		pair: tensor.DotPairQ16F32x4, one: tensor.DotQ16F32x4,
		laneRow: tensor.DotBatchQ16F32Strided, lanePair: tensor.DotBatchPairQ16F32Strided,
		wide:    tensor.DotBatchQ16F32x4,
		fastSeg: tensor.DotSegQ16FastF32, fastOne: tensor.DotQ16FastF32,
		fastWide: tensor.DotQ16BatchFastF32Strided,
	}
	switch unroll {
	case 1:
		d.pair, d.one, d.wide = tensor.DotPairQ16F32, tensor.DotQ16F32, tensor.DotBatchQ16F32
	case 2:
		d.pair, d.one, d.wide = tensor.DotPairQ16F32x2, tensor.DotQ16F32x2, tensor.DotBatchQ16F32x2
	case 8:
		d.pair, d.one, d.wide = tensor.DotPairQ16F32x8, tensor.DotQ16F32x8, tensor.DotBatchQ16F32x8
	}
	return d
}

// quantKernels returns the segment kernels of an integer program; scales is
// indexed by output row.
//
// Exact tier: runs of four rows go through the quad kernel — four
// accumulators sharing one conversion of the gathered input, carried in a
// single ymm on the AVX2 path, where the whole segment's quad runs execute
// in one segQuad call (scale lookup and y scatter included) — and the
// remainder falls to the paired/single kernels of the unroll factor. Panels
// mirror the float32 program.
//
// Fast tier: the segment driver widens the integers straight into FMA chains
// with float32 accumulation and applies each row's scale once after its
// reduce; panels widen each weight once, broadcast it, and FMA-accumulate
// against all lanes in float32.
func quantKernels[T qint](vals []T, scales []float32, d quantDots[T], fast bool) (segKernel, segBatchKernel) {
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
			s0, s1 := d.pair(v[ri*nc:ri*nc+nc], v[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(d.one(v[ri*nc:ri*nc+nc], scales[r], g))
		}
	}
	batch := func(y []float32, rows []int32, off, nc int, g []float32, bw int, s *PackedScratch) {
		v := vals[off : off+len(rows)*nc]
		if bw >= 8 && tensor.BatchSIMD() {
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
			return
		}
		acc := s.acc[:bw]
		for ri, r := range rows {
			d.wide(v[ri*nc:(ri+1)*nc], scales[r], g, bw, acc)
			addF64(y[int(r)*bw:(int(r)+1)*bw], acc)
		}
	}
	return seg, batch
}
