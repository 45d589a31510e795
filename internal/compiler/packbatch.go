package compiler

import (
	"fmt"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// Batched packed execution (SpMM). Run streams the whole Vals/ColIdx arrays
// for one input vector's worth of arithmetic — one MAC per loaded weight —
// which is why BENCH_2 showed the packed backend memory-bound and every
// extra worker a regression. RunBatch executes the same program over B
// input vectors at once, laid out as a column-major panel (element i of
// stream l at x[i*B+l]): each segment's weights and column indices are read
// once per step for the whole batch and multiplied against B lanes, so
// arithmetic intensity scales with B. This is the serving-throughput move
// GRIM and CSB-RNN build on (see PAPERS.md).
//
// Determinism contract, extended from Run: lane l of the output panel is
// bit-identical to Run on lane l's vector alone. Every (row, lane) output
// element has its own float64 accumulator fed in the interpreter's term
// order (the batched kernels in internal/tensor unroll over the weight
// index, never across lanes), segments and rows are visited in the same
// order, and the parallel merge keeps the one-lane-per-row invariant per
// lane column. Batch width changes data layout, never summation order.

// ensureBatch grows the serial batched buffers for width bw. The
// accumulator holds 2*bw entries so blockDotBatch can run the row-pair
// kernel (two rows' accumulators live side by side).
func (s *PackedScratch) ensureBatch(p *PackedProgram, bw int) {
	s.ensureBatchDims(p.MaxGather, bw)
}

// ensureBatchDims grows the serial batched buffers for a program with the
// given widest gather at width bw. Shared by the float32 and quantized
// backends.
func (s *PackedScratch) ensureBatchDims(maxGather, bw int) {
	if cap(s.pbuf) < maxGather*bw {
		s.pbuf = make([]float32, maxGather*bw)
	}
	if cap(s.acc) < 2*bw {
		s.acc = make([]float64, 2*bw)
	}
	if cap(s.facc) < bw {
		s.facc = make([]float32, bw)
	}
}

// ensureBatchParallel grows the per-lane batched buffers for width bw.
func (s *PackedScratch) ensureBatchParallel(p *PackedProgram, bw int) {
	s.ensureBatchParallelDims(len(p.Lanes), p.Rows, p.MaxGather, bw)
}

// ensureBatchParallelDims grows the per-lane batched buffers for a program
// with the given lane count, output rows, and widest gather at width bw.
func (s *PackedScratch) ensureBatchParallelDims(lanes, rows, maxGather, bw int) {
	if n := lanes - len(s.bpartials); n > 0 {
		s.bpartials = append(s.bpartials, make([][]float32, n)...)
		s.blanebufs = append(s.blanebufs, make([][]float32, n)...)
		s.baccs = append(s.baccs, make([][]float64, n)...)
		s.bfaccs = append(s.bfaccs, make([][]float32, n)...)
	}
	for t := 0; t < lanes; t++ {
		if cap(s.bpartials[t]) < rows*bw {
			s.bpartials[t] = make([]float32, rows*bw)
		}
		if cap(s.blanebufs[t]) < maxGather*bw {
			s.blanebufs[t] = make([]float32, maxGather*bw)
		}
		if cap(s.baccs[t]) < 2*bw {
			s.baccs[t] = make([]float64, 2*bw)
		}
		if cap(s.bfaccs[t]) < bw {
			s.bfaccs[t] = make([]float32, bw)
		}
	}
}

// runLaneBatch executes one lane's segments over a bw-wide input panel,
// accumulating into the output panel y. The gather panel pbuf stages
// gathered columns lane-contiguously; stream segments slice the input panel
// directly (a window [lo, lo+nc) of columns is the contiguous panel range
// [lo*bw, (lo+nc)*bw)).
func (p *PackedProgram) runLaneBatch(l *PackedLane, y, x, pbuf []float32, acc []float64, facc []float32, bw int) {
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
		vals := p.Vals[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
		if p.Precision == PrecisionFast {
			blockDotBatchFast(y, rows, vals, g, nc, bw, facc)
		} else {
			blockDotBatch(y, rows, vals, g, nc, bw, unroll, acc)
		}
	}
}

// blockDotBatchFast is the fast-tier blockDotBatch: each weight row is
// streamed once and FMA-broadcast against all bw lanes with per-lane
// float32 accumulators (tensor.DotBatchFastF32Strided dispatches across
// the AVX2 chunk kernel and the portable fallback internally, so no panel
// width gate is needed here).
func blockDotBatchFast(y []float32, rows []int32, vals, g []float32, nc, bw int, facc []float32) {
	facc = facc[:bw]
	for ri, r := range rows {
		tensor.DotBatchFastF32Strided(vals[ri*nc:(ri+1)*nc], g, bw, facc)
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += facc[l]
		}
	}
}

// blockDotBatch accumulates one segment's row dots into the output panel:
// each weight row is streamed once and multiplied against all bw lanes of
// the gathered panel, with per-(row, lane) accumulation order identical to
// the serial blockDot reference.
func blockDotBatch(y []float32, rows []int32, vals, g []float32, nc, bw, unroll int, acc []float64) {
	// Wide panels go through the AVX2 across-lane kernels when available,
	// pairing rows of the segment so each panel column is converted once
	// for two rows (the batched analogue of the serial DotPair kernels).
	// Summation order per (row, lane) is the same as the unrolled portable
	// kernels, so the unroll factor only matters on the fallback path.
	// acc holds 2*bw entries: one bw-wide accumulator per row of the pair.
	if bw >= 8 && tensor.BatchSIMD() {
		acc0, acc1 := acc[:bw], acc[bw:2*bw]
		ri := 0
		for ; ri+2 <= len(rows); ri += 2 {
			tensor.DotBatchPairF64Strided(
				vals[ri*nc:(ri+1)*nc], vals[(ri+1)*nc:(ri+2)*nc], g, bw, acc0, acc1)
			out0 := y[int(rows[ri])*bw : (int(rows[ri])+1)*bw]
			for l := range out0 {
				out0[l] += float32(acc0[l])
			}
			out1 := y[int(rows[ri+1])*bw : (int(rows[ri+1])+1)*bw]
			for l := range out1 {
				out1[l] += float32(acc1[l])
			}
		}
		if ri < len(rows) {
			tensor.DotBatchF64Strided(vals[ri*nc:(ri+1)*nc], g, bw, acc0)
			out := y[int(rows[ri])*bw : (int(rows[ri])+1)*bw]
			for l := range out {
				out[l] += float32(acc0[l])
			}
		}
		return
	}
	for ri, r := range rows {
		a := vals[ri*nc : (ri+1)*nc]
		switch unroll {
		case 1:
			tensor.DotBatchF64(a, g, bw, acc)
		case 2:
			tensor.DotBatchF64x2(a, g, bw, acc)
		case 8:
			tensor.DotBatchF64x8(a, g, bw, acc)
		default: // 4
			tensor.DotBatchF64x4(a, g, bw, acc)
		}
		out := y[int(r)*bw : (int(r)+1)*bw]
		for l := range out {
			out[l] += float32(acc[l])
		}
	}
}

// RunBatch executes the program serially over a bw-wide input panel,
// writing the output panel y (len Rows*bw). Panels are column-major:
// element i of stream l lives at panel[i*bw+l]. Lane l of y is
// bit-identical to Run on lane l's vector alone. With a reused scratch the
// steady state performs zero heap allocations; bw == 1 is exactly Run.
func (p *PackedProgram) RunBatch(y, x []float32, bw int, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunBatchAdd(y, x, bw, s)
}

// RunBatchAdd is RunBatch without the clear: lane l of y receives RunAdd's
// result on lane l's vector (tensor.MatVecAddBatch's contract).
func (p *PackedProgram) RunBatchAdd(y, x []float32, bw int, s *PackedScratch) error {
	if bw == 1 {
		return p.RunAdd(y, x, s)
	}
	if bw < 1 {
		return fmt.Errorf("compiler: packed RunBatch width %d < 1", bw)
	}
	if len(x) != p.Cols*bw || len(y) != p.Rows*bw {
		return fmt.Errorf("compiler: packed RunBatch shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureBatch(p, bw)
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

// RunBatchParallel shards the batched execution across the pool: each
// worker claims whole lanes — disjoint row sets, each with bw columns of
// work — into a private output panel, and the merge adds lane panels in
// lane index order, so results are bit-identical to RunBatch (and hence to
// per-stream serial Run) at any worker count. Unlike the single-stream
// path, batched work clears the fork-join break-even once bw scales the
// per-lane arithmetic past ParallelBreakEvenMACs per worker; below that it
// falls back to RunBatch. A nil pool uses parallel.Default(); a nil scratch
// allocates one internally.
func (p *PackedProgram) RunBatchParallel(y, x []float32, bw int, pool *parallel.Pool, s *PackedScratch) error {
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
		return fmt.Errorf("compiler: packed RunBatch width %d < 1", bw)
	}
	if len(x) != p.Cols*bw || len(y) != p.Rows*bw {
		return fmt.Errorf("compiler: packed RunBatch shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureBatchParallel(p, bw)
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
