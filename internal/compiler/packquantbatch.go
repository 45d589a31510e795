package compiler

import (
	"fmt"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// Batched quantized packed execution: the column-major panel layout of
// packbatch.go with the int8/int16 weight stream of packquant.go. One
// quantized weight is loaded and dequantized once per panel step and
// multiplied against all B lanes, so the weight-bytes streamed per MAC
// shrink by the quantization factor on top of the batching win — the best
// arithmetic-intensity point the backend reaches. The determinism contract
// extends unchanged: lane l of the output panel is bit-identical to Run on
// lane l's vector alone, at every batch width, unroll factor, worker count,
// and on the AVX2 path.

// runLaneBatch executes one lane's segments over a bw-wide input panel,
// accumulating into the output panel y (see PackedProgram.runLaneBatch for
// the panel layout).
func (p *PackedQProgram) runLaneBatch(l *PackedLane, y, x, pbuf []float32, acc []float64, facc []float32, bw int) {
	unroll := p.Unroll
	for si := range l.Segs {
		sg := &l.Segs[si]
		nc := int(sg.NC)
		var g []float32
		if sg.Kind == segGather {
			cols := p.ColIdx[sg.Arg : int(sg.Arg)+nc]
			g = pbuf[:nc*bw]
			for i, c := range cols {
				copy(g[i*bw:(i+1)*bw], x[int(c)*bw:(int(c)+1)*bw])
			}
		} else {
			g = x[int(sg.Arg)*bw : (int(sg.Arg)+nc)*bw]
		}
		if sg.NR == 0 {
			continue
		}
		rows := l.Rows[sg.RowOff : int(sg.RowOff)+int(sg.NR)]
		if p.Bits == 8 {
			vals := p.Vals8[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
			if p.Precision == PrecisionFast {
				blockDotQ8BatchFast(y, rows, vals, p.Scales, g, nc, bw, facc)
			} else {
				blockDotQ8Batch(y, rows, vals, p.Scales, g, nc, bw, unroll, acc)
			}
		} else {
			vals := p.Vals16[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
			if p.Precision == PrecisionFast {
				blockDotQ16BatchFast(y, rows, vals, p.Scales, g, nc, bw, facc)
			} else {
				blockDotQ16Batch(y, rows, vals, p.Scales, g, nc, bw, unroll, acc)
			}
		}
	}
}

// blockDotQ8BatchFast is the fast-tier blockDotQ8Batch: each int8 weight
// is widened once, broadcast, and FMA-accumulated against all bw lanes in
// float32, with the row scale applied once per lane after the stream
// (tensor.DotQ8BatchFastF32Strided dispatches SIMD vs portable
// internally).
func blockDotQ8BatchFast(y []float32, rows []int32, vals []int8, scales, g []float32, nc, bw int, facc []float32) {
	facc = facc[:bw]
	for ri, r := range rows {
		tensor.DotQ8BatchFastF32Strided(vals[ri*nc:(ri+1)*nc], scales[r], g, bw, facc)
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += facc[l]
		}
	}
}

// blockDotQ16BatchFast is blockDotQ8BatchFast for the int16-stored
// formats.
func blockDotQ16BatchFast(y []float32, rows []int32, vals []int16, scales, g []float32, nc, bw int, facc []float32) {
	facc = facc[:bw]
	for ri, r := range rows {
		tensor.DotQ16BatchFastF32Strided(vals[ri*nc:(ri+1)*nc], scales[r], g, bw, facc)
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += facc[l]
		}
	}
}

// blockDotQ8Batch accumulates one segment's int8 row dots into the output
// panel, mirroring blockDotBatch: wide panels go through the AVX2
// across-lane kernels (row-paired) when available, narrower ones through
// the portable unrolled kernels; per-(row, lane) order is identical on both
// paths.
func blockDotQ8Batch(y []float32, rows []int32, vals []int8, scales, g []float32, nc, bw, unroll int, acc []float64) {
	if bw >= 8 && tensor.BatchSIMD() {
		acc0, acc1 := acc[:bw], acc[bw:2*bw]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			tensor.DotBatchPairQ8F32Strided(
				vals[ri*nc:(ri+1)*nc], vals[(ri+1)*nc:(ri+2)*nc],
				scales[r0], scales[r1], g, bw, acc0, acc1)
			out0 := y[int(r0)*bw : (int(r0)+1)*bw]
			for l := range out0 {
				out0[l] += float32(acc0[l])
			}
			out1 := y[int(r1)*bw : (int(r1)+1)*bw]
			for l := range out1 {
				out1[l] += float32(acc1[l])
			}
		}
		if ri < len(rows) {
			r := rows[ri]
			tensor.DotBatchQ8F32Strided(vals[ri*nc:(ri+1)*nc], scales[r], g, bw, acc0)
			out := y[int(r)*bw : (int(r)+1)*bw]
			for l := range out {
				out[l] += float32(acc0[l])
			}
		}
		return
	}
	for ri, r := range rows {
		a := vals[ri*nc : (ri+1)*nc]
		sc := scales[r]
		switch unroll {
		case 1:
			tensor.DotBatchQ8F32(a, sc, g, bw, acc)
		case 2:
			tensor.DotBatchQ8F32x2(a, sc, g, bw, acc)
		case 8:
			tensor.DotBatchQ8F32x8(a, sc, g, bw, acc)
		default: // 4
			tensor.DotBatchQ8F32x4(a, sc, g, bw, acc)
		}
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += float32(acc[l])
		}
	}
}

// blockDotQ16Batch is blockDotQ8Batch for the int16-stored formats.
func blockDotQ16Batch(y []float32, rows []int32, vals []int16, scales, g []float32, nc, bw, unroll int, acc []float64) {
	if bw >= 8 && tensor.BatchSIMD() {
		acc0, acc1 := acc[:bw], acc[bw:2*bw]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			tensor.DotBatchPairQ16F32Strided(
				vals[ri*nc:(ri+1)*nc], vals[(ri+1)*nc:(ri+2)*nc],
				scales[r0], scales[r1], g, bw, acc0, acc1)
			out0 := y[int(r0)*bw : (int(r0)+1)*bw]
			for l := range out0 {
				out0[l] += float32(acc0[l])
			}
			out1 := y[int(r1)*bw : (int(r1)+1)*bw]
			for l := range out1 {
				out1[l] += float32(acc1[l])
			}
		}
		if ri < len(rows) {
			r := rows[ri]
			tensor.DotBatchQ16F32Strided(vals[ri*nc:(ri+1)*nc], scales[r], g, bw, acc0)
			out := y[int(r)*bw : (int(r)+1)*bw]
			for l := range out {
				out[l] += float32(acc0[l])
			}
		}
		return
	}
	for ri, r := range rows {
		a := vals[ri*nc : (ri+1)*nc]
		sc := scales[r]
		switch unroll {
		case 1:
			tensor.DotBatchQ16F32(a, sc, g, bw, acc)
		case 2:
			tensor.DotBatchQ16F32x2(a, sc, g, bw, acc)
		case 8:
			tensor.DotBatchQ16F32x8(a, sc, g, bw, acc)
		default: // 4
			tensor.DotBatchQ16F32x4(a, sc, g, bw, acc)
		}
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += float32(acc[l])
		}
	}
}

// RunBatch executes the program serially over a bw-wide input panel,
// writing the output panel y (len Rows*bw). Panels are column-major:
// element i of stream l lives at panel[i*bw+l]. With a reused scratch the
// steady state performs zero heap allocations; bw == 1 is exactly Run.
func (p *PackedQProgram) RunBatch(y, x []float32, bw int, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunBatchAdd(y, x, bw, s)
}

// RunBatchAdd is RunBatch without the clear, as PackedProgram.RunBatchAdd.
func (p *PackedQProgram) RunBatchAdd(y, x []float32, bw int, s *PackedScratch) error {
	if bw == 1 {
		return p.RunAdd(y, x, s)
	}
	if bw < 1 {
		return fmt.Errorf("compiler: packed quant RunBatch width %d < 1", bw)
	}
	if len(x) != p.Cols*bw || len(y) != p.Rows*bw {
		return fmt.Errorf("compiler: packed quant RunBatch shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureBatchDims(p.MaxGather, bw)
	m := obs.M()
	track := m != nil || p.trace != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	pbuf := s.pbuf[:cap(s.pbuf)]
	acc := s.acc[:2*bw]
	facc := s.facc[:bw]
	for t := range p.Lanes {
		p.runLaneBatch(&p.Lanes[t], y, x, pbuf, acc, facc, bw)
	}
	if track {
		p.observe(t0, bw, m)
	}
	return nil
}

// RunBatchParallel shards the batched execution across the pool with the
// float32 backend's scheme: whole lanes per worker into private output
// panels, deterministic lane-order merge, fallback to RunBatch below the
// bw-scaled fork-join break-even.
func (p *PackedQProgram) RunBatchParallel(y, x []float32, bw int, pool *parallel.Pool, s *PackedScratch) error {
	if bw == 1 {
		return p.RunParallel(y, x, pool, s)
	}
	if pool == nil {
		pool = parallel.Default()
	}
	if pool.Workers() < 2 || len(p.Lanes) < 2 ||
		!ParallelWorthwhile(p.totalMACs*bw, min(pool.Workers(), len(p.Lanes))) {
		return p.RunBatch(y, x, bw, s)
	}
	if bw < 1 {
		return fmt.Errorf("compiler: packed quant RunBatch width %d < 1", bw)
	}
	if len(x) != p.Cols*bw || len(y) != p.Rows*bw {
		return fmt.Errorf("compiler: packed quant RunBatch shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureBatchParallelDims(len(p.Lanes), p.Rows, p.MaxGather, bw)
	m := obs.M()
	track := m != nil || p.trace != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	lanes := len(p.Lanes)
	pool.For(lanes, func(t int) {
		yt := s.bpartials[t][:p.Rows*bw]
		tensor.ZeroVec(yt)
		p.runLaneBatch(&p.Lanes[t], yt, x, s.blanebufs[t][:cap(s.blanebufs[t])],
			s.baccs[t][:2*bw], s.bfaccs[t][:bw], bw)
	})
	// Deterministic merge in lane order; one-lane-per-row means each output
	// panel row receives at most one nonzero lane contribution.
	tensor.ZeroVec(y)
	for t := 0; t < lanes; t++ {
		for idx, v := range s.bpartials[t][:p.Rows*bw] {
			if v != 0 {
				y[idx] += v
			}
		}
	}
	if track {
		p.observe(t0, bw, m)
	}
	return nil
}
