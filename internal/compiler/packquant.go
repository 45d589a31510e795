package compiler

import (
	"fmt"
	"math"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// Quantized packed execution backend. PR 3 established the packed backend is
// memory-bound — the batching win came from loading each weight once per
// panel, not from more FLOPs — yet every weight still streams as a 4-byte
// float32. PackQuant keeps the flat vals/colIdx/segment layout of Pack but
// stores the vals as int8 (8-bit mode) or int16 (12- and 16-bit modes) with
// per-row or per-tensor scales, so the hot-path weight stream shrinks 2–4×.
// This is the storage/kernel co-design the comparison systems run: ESE's
// 12-bit entries, E-RNN's quantized block-circulant weights, and the
// quantized formats GRIM and CSB-RNN execute from (see PAPERS.md).
//
// Determinism contract: every kernel dequantizes in-register —
// wd = float64(scale)·float64(q), one multiply per weight element — and
// accumulates wd·float64(x) in strictly increasing index order, so packed
// quantized execution is bit-identical to a scalar reference that
// dequantizes then dots (both int→float64 and float32→float64 conversions
// are exact). Lane-major row order and the one-lane-per-row parallel merge
// are inherited from the float32 backend unchanged. What quantization does
// NOT preserve is the original float32 weights — the accuracy delta is the
// engine-level guardrail's job (internal/rtmobile), not the executor's.

// QuantBitsValid reports whether bits selects an implemented quantized
// packed format (8, 12, or 16; 0 means unquantized).
func QuantBitsValid(bits int) bool {
	return bits == 8 || bits == 12 || bits == 16
}

// PackedQProgram is the quantized flattened form of a Program. The segment
// and lane layout is exactly PackedProgram's; only the vals storage differs:
// Vals8 for the 8-bit mode, Vals16 for the 12- and 16-bit modes (12-bit
// values occupy int16 in host memory for kernel addressing; the device
// format packs them, so footprint accounting uses Bits).
type PackedQProgram struct {
	Name       string
	Rows, Cols int
	Format     Format
	// Bits is the quantized width: 8, 12, or 16.
	Bits   int
	Scheme quant.Scheme
	Unroll int
	// Precision selects the kernel tier, as on PackedProgram: the fast
	// tier dequantizes into float32 lanes and FMA-accumulates, applying
	// each row's scale once instead of inside the accumulation chain.
	Precision Precision

	Vals8  []int8  // all dot payloads when Bits == 8
	Vals16 []int16 // all dot payloads when Bits == 12 or 16
	// Scales always holds one scale per output row (PerTensor repeats the
	// single scale), so kernels index it by row without a scheme branch.
	Scales []float32
	// numScales is the stored scale count of the scheme (1 or Rows) — what
	// a serialized artifact ships.
	numScales int

	ColIdx []int32
	Lanes  []PackedLane

	MaxGather int

	totalMACs   int
	streamBytes int

	trace   *obs.Tracer
	traceID int32
}

// PackQuant lowers a Program into quantized packed form: Pack for the
// layout and validation, then symmetric linear quantization of the packed
// vals through internal/quant's scale mapping. Row scales are computed over
// the packed nonzeros, which equal the row's true nonzeros (every stored
// value is packed exactly once), so requantizing an already-dequantized
// model reproduces identical integers — the bundle round-trip relies on
// this. The returned program shares no mutable state with p and is safe for
// concurrent use; per-execution scratch lives in PackedScratch.
func PackQuant(p *Program, bits int, scheme quant.Scheme, unroll int) (*PackedQProgram, error) {
	if !QuantBitsValid(bits) {
		return nil, fmt.Errorf("compiler: PackQuant bits must be 8, 12 or 16, got %d", bits)
	}
	pp, err := Pack(p, unroll)
	if err != nil {
		return nil, err
	}
	pq := &PackedQProgram{
		Name: pp.Name, Rows: pp.Rows, Cols: pp.Cols,
		Format: pp.Format, Bits: bits, Scheme: scheme,
		Unroll:    pp.Unroll,
		Precision: pp.Precision,
		ColIdx:    pp.ColIdx,
		Lanes:     pp.Lanes,
		MaxGather: pp.MaxGather,
		totalMACs: pp.totalMACs,
		Scales:    make([]float32, pp.Rows),
	}

	// Row maxAbs over the packed vals. A row's packed values are its true
	// nonzeros (possibly split across segments under column tiling), so this
	// equals the dense row maxAbs restricted to stored weights.
	rowMax := make([]float64, pp.Rows)
	forEachRowVals(pp, func(row int32, vals []float32) {
		mx := rowMax[row]
		for _, v := range vals {
			if a := math.Abs(float64(v)); a > mx {
				mx = a
			}
		}
		rowMax[row] = mx
	})

	switch scheme {
	case quant.PerTensor:
		mx := 0.0
		for _, m := range rowMax {
			if m > mx {
				mx = m
			}
		}
		sc := quant.ScaleFor(mx, bits)
		for r := range pq.Scales {
			pq.Scales[r] = sc
		}
		pq.numScales = 1
	case quant.PerRow:
		for r := range pq.Scales {
			pq.Scales[r] = quant.ScaleFor(rowMax[r], bits)
		}
		pq.numScales = pp.Rows
	default:
		return nil, fmt.Errorf("compiler: PackQuant unknown scheme %v", scheme)
	}

	qmax := quant.QMax(bits)
	if bits == 8 {
		pq.Vals8 = make([]int8, len(pp.Vals))
	} else {
		pq.Vals16 = make([]int16, len(pp.Vals))
	}
	forEachRowValsOff(pp, func(row int32, off int, vals []float32) {
		s := float64(pq.Scales[row])
		if bits == 8 {
			for i, v := range vals {
				pq.Vals8[off+i] = int8(quant.ClampRound(float64(v)/s, qmax))
			}
		} else {
			for i, v := range vals {
				pq.Vals16[off+i] = int16(quant.ClampRound(float64(v)/s, qmax))
			}
		}
	})
	pq.streamBytes = pq.elemBytes() * pq.numVals()
	return pq, nil
}

// forEachRowVals walks every packed row-dot payload: fn receives the output
// row and its contiguous vals slice, once per (segment, row) pair.
func forEachRowVals(pp *PackedProgram, fn func(row int32, vals []float32)) {
	forEachRowValsOff(pp, func(row int32, off int, vals []float32) { fn(row, vals) })
}

// forEachRowValsOff is forEachRowVals with the payload's offset into Vals.
func forEachRowValsOff(pp *PackedProgram, fn func(row int32, off int, vals []float32)) {
	for t := range pp.Lanes {
		l := &pp.Lanes[t]
		for si := range l.Segs {
			sg := &l.Segs[si]
			nc := int(sg.NC)
			for i := 0; i < int(sg.NR); i++ {
				row := l.Rows[int(sg.RowOff)+i]
				off := int(sg.ValOff) + i*nc
				fn(row, off, pp.Vals[off:off+nc])
			}
		}
	}
}

// numVals returns the packed value count.
func (p *PackedQProgram) numVals() int {
	if p.Bits == 8 {
		return len(p.Vals8)
	}
	return len(p.Vals16)
}

// elemBytes is the host storage size of one packed value.
func (p *PackedQProgram) elemBytes() int {
	if p.Bits == 8 {
		return 1
	}
	return 2
}

// NumScales reports the stored scale count of the scheme (1 for PerTensor,
// Rows for PerRow) — the count a serialized artifact ships.
func (p *PackedQProgram) NumScales() int { return p.numScales }

// WeightBytes returns the device-format weight storage in bytes: Bits per
// stored value, bit-packed — the footprint Table II accounts (12-bit
// entries pack to 1.5 bytes on device even though host kernels address
// them as int16). Scales are excluded (accounted like other per-row
// metadata, with the index stream).
func (p *PackedQProgram) WeightBytes() int {
	return (p.numVals()*p.Bits + 7) / 8
}

// StreamBytes reports the static host weight bytes this program streams per
// execution (once per batched execution, regardless of width): 1 byte per
// value at 8 bits, 2 at 12/16.
func (p *PackedQProgram) StreamBytes() int { return p.streamBytes }

// SetTracer attaches (or detaches, with nil) a stage tracer; id labels the
// recorded kernel spans, like PackedProgram.SetTracer.
func (p *PackedQProgram) SetTracer(tr *obs.Tracer, id int32) {
	p.trace = tr
	p.traceID = id
}

// TotalMACs reports the program's static multiply-accumulate count per
// execution.
func (p *PackedQProgram) TotalMACs() int { return p.totalMACs }

// stageKind selects the per-format, per-tier kernel span kind.
func (p *PackedQProgram) stageKind() obs.StageKind {
	if p.Bits == 8 {
		if p.Precision == PrecisionFast {
			return obs.StageKernelQ8Fast
		}
		return obs.StageKernelQ8
	}
	if p.Precision == PrecisionFast {
		return obs.StageKernelQ16Fast
	}
	return obs.StageKernelQ16
}

// observe records one finished execution of bw lanes (latency sample and
// kernel span; work counters are the engine's, see PackedProgram.observe).
// Allocation-free.
func (p *PackedQProgram) observe(t0 time.Time, bw int, m *obs.Metrics) {
	dur := time.Since(t0).Nanoseconds()
	if m != nil {
		m.KernelLatency.Observe(dur)
	}
	if p.trace != nil {
		p.trace.Record(p.stageKind(), p.traceID, int32(bw), t0.UnixNano(), dur)
	}
}

// Stats returns the program's execution event counts (static, identical to
// the float32 backend's — quantization changes bytes, not events).
func (p *PackedQProgram) Stats() ExecStats {
	stats := ExecStats{ThreadMACs: make([]int, len(p.Lanes))}
	for t := range p.Lanes {
		c := &p.Lanes[t].counts
		stats.GatherLoads += c.gathers
		stats.StreamedVals += c.streamed
		stats.ThreadMACs[t] = c.macs
	}
	return stats
}

// NumSegs counts segment descriptors across lanes.
func (p *PackedQProgram) NumSegs() int {
	n := 0
	for i := range p.Lanes {
		n += len(p.Lanes[i].Segs)
	}
	return n
}

// NewScratch returns a scratch arena sized for this program's serial path.
func (p *PackedQProgram) NewScratch() *PackedScratch {
	return &PackedScratch{xbuf: make([]float32, p.MaxGather)}
}

// runLane executes one lane's segments, accumulating into y.
func (p *PackedQProgram) runLane(l *PackedLane, y, x, xbuf []float32) {
	unroll := p.Unroll
	for si := range l.Segs {
		sg := &l.Segs[si]
		nc := int(sg.NC)
		var g []float32
		if sg.Kind == segGather {
			cols := p.ColIdx[sg.Arg : int(sg.Arg)+nc]
			g = xbuf[:nc]
			for i, c := range cols {
				g[i] = x[c]
			}
		} else {
			g = x[sg.Arg : int(sg.Arg)+nc]
		}
		if sg.NR == 0 {
			continue
		}
		rows := l.Rows[sg.RowOff : int(sg.RowOff)+int(sg.NR)]
		if p.Bits == 8 {
			vals := p.Vals8[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
			if p.Precision == PrecisionFast {
				blockDotQ8Fast(y, rows, vals, p.Scales, g, nc)
			} else {
				blockDotQ8(y, rows, vals, p.Scales, g, nc, unroll)
			}
		} else {
			vals := p.Vals16[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
			if p.Precision == PrecisionFast {
				blockDotQ16Fast(y, rows, vals, p.Scales, g, nc)
			} else {
				blockDotQ16(y, rows, vals, p.Scales, g, nc, unroll)
			}
		}
	}
}

// blockDotQ8Fast is the fast-tier blockDotQ8: the segment driver widens
// int8 lanes straight into FMA chains with float32 accumulation and
// applies each row's scale once after its reduce; the remainder (or the
// no-SIMD case) falls to per-row fast quant dots with identical
// f32-index-order semantics.
func blockDotQ8Fast(y []float32, rows []int32, vals []int8, scales, g []float32, nc int) {
	ri := tensor.DotSegQ8FastF32(vals, rows, scales, g, y)
	for ; ri < len(rows); ri++ {
		r := rows[ri]
		y[r] += tensor.DotQ8FastF32(vals[ri*nc:ri*nc+nc], scales[r], g)
	}
}

// blockDotQ16Fast is blockDotQ8Fast for the int16-stored formats.
func blockDotQ16Fast(y []float32, rows []int32, vals []int16, scales, g []float32, nc int) {
	ri := tensor.DotSegQ16FastF32(vals, rows, scales, g, y)
	for ; ri < len(rows); ri++ {
		r := rows[ri]
		y[r] += tensor.DotQ16FastF32(vals[ri*nc:ri*nc+nc], scales[r], g)
	}
}

// blockDotQ8 accumulates one segment's int8 row dots into y. Runs of four
// rows go through the quad kernel — four accumulators sharing one conversion
// of the gathered input, carried in a single ymm on the AVX2 path — and the
// remainder falls to the paired/single kernels of the requested unroll.
// Every variant is bit-identical, so mixing them never changes the output.
// On the vector path the whole segment's quad runs execute in one
// tensor.DotSegQuadQ8F32 call (scale lookup and y scatter included): segments
// are narrow enough that per-quad call overhead otherwise rivals the MACs.
func blockDotQ8(y []float32, rows []int32, vals []int8, scales, g []float32, nc, unroll int) {
	ri := tensor.DotSegQuadQ8F32(vals, rows, scales, g, y)
	for ; ri+4 <= len(rows); ri += 4 {
		r0, r1, r2, r3 := rows[ri], rows[ri+1], rows[ri+2], rows[ri+3]
		s0, s1, s2, s3 := tensor.DotQuadQ8F32(
			vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc],
			vals[(ri+2)*nc:(ri+2)*nc+nc], vals[(ri+3)*nc:(ri+3)*nc+nc],
			scales[r0], scales[r1], scales[r2], scales[r3], g)
		y[r0] += float32(s0)
		y[r1] += float32(s1)
		y[r2] += float32(s2)
		y[r3] += float32(s3)
	}
	switch unroll {
	case 1:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ8F32(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ8F32(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	case 2:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ8F32x2(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ8F32x2(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	case 8:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ8F32x8(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ8F32x8(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	default: // 4
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ8F32x4(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ8F32x4(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	}
}

// blockDotQ16 is blockDotQ8 for the int16-stored formats.
func blockDotQ16(y []float32, rows []int32, vals []int16, scales, g []float32, nc, unroll int) {
	ri := tensor.DotSegQuadQ16F32(vals, rows, scales, g, y)
	for ; ri+4 <= len(rows); ri += 4 {
		r0, r1, r2, r3 := rows[ri], rows[ri+1], rows[ri+2], rows[ri+3]
		s0, s1, s2, s3 := tensor.DotQuadQ16F32(
			vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc],
			vals[(ri+2)*nc:(ri+2)*nc+nc], vals[(ri+3)*nc:(ri+3)*nc+nc],
			scales[r0], scales[r1], scales[r2], scales[r3], g)
		y[r0] += float32(s0)
		y[r1] += float32(s1)
		y[r2] += float32(s2)
		y[r3] += float32(s3)
	}
	switch unroll {
	case 1:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ16F32(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ16F32(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	case 2:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ16F32x2(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ16F32x2(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	case 8:
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ16F32x8(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ16F32x8(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	default: // 4
		for ; ri+2 <= len(rows); ri += 2 {
			r0, r1 := rows[ri], rows[ri+1]
			s0, s1 := tensor.DotPairQ16F32x4(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], scales[r0], scales[r1], g)
			y[r0] += float32(s0)
			y[r1] += float32(s1)
		}
		if ri < len(rows) {
			r := rows[ri]
			y[r] += float32(tensor.DotQ16F32x4(vals[ri*nc:ri*nc+nc], scales[r], g))
		}
	}
}

// Run executes the program serially on x, writing y = W·x (len Rows). With
// a reused scratch it performs zero heap allocations — the same
// inference-path contract as the float32 backend. A nil scratch allocates
// one internally.
func (p *PackedQProgram) Run(y, x []float32, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunAdd(y, x, s)
}

// RunAdd is Run without the clear: y += W·x, as PackedProgram.RunAdd.
func (p *PackedQProgram) RunAdd(y, x []float32, s *PackedScratch) error {
	if len(x) != p.Cols || len(y) != p.Rows {
		return fmt.Errorf("compiler: packed quant Run shape mismatch")
	}
	if s == nil {
		s = p.NewScratch()
	} else {
		s.ensureSerialDims(p.MaxGather)
	}
	m := obs.M()
	track := m != nil || p.trace != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	xbuf := s.xbuf[:cap(s.xbuf)]
	for t := range p.Lanes {
		p.runLane(&p.Lanes[t], y, x, xbuf)
	}
	if track {
		p.observe(t0, 1, m)
	}
	return nil
}

// Execute runs serially and returns the (static) event counts.
func (p *PackedQProgram) Execute(y, x []float32) (ExecStats, error) {
	if err := p.Run(y, x, nil); err != nil {
		return ExecStats{}, err
	}
	return p.Stats(), nil
}

// RunParallel executes the program's lanes on the pool, writing y, with the
// float32 backend's scheme unchanged: private per-lane accumulators, merge
// in lane index order, fallback to serial Run below the fork-join break-even
// (ParallelBreakEvenMACs) or with fewer than 2 workers/lanes.
func (p *PackedQProgram) RunParallel(y, x []float32, pool *parallel.Pool, s *PackedScratch) error {
	if pool == nil {
		pool = parallel.Default()
	}
	if pool.Workers() < 2 || len(p.Lanes) < 2 ||
		!ParallelWorthwhile(p.totalMACs, min(pool.Workers(), len(p.Lanes))) {
		return p.Run(y, x, s)
	}
	if len(x) != p.Cols || len(y) != p.Rows {
		return fmt.Errorf("compiler: packed quant Run shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureParallelDims(len(p.Lanes), p.Rows, p.MaxGather)
	m := obs.M()
	track := m != nil || p.trace != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	lanes := len(p.Lanes)
	pool.For(lanes, func(t int) {
		yt := s.partials[t][:p.Rows]
		tensor.ZeroVec(yt)
		p.runLane(&p.Lanes[t], yt, x, s.lanebufs[t][:cap(s.lanebufs[t])])
	})
	// Deterministic merge in lane order; the one-lane-per-row invariant
	// means each y[r] receives at most one nonzero contribution.
	tensor.ZeroVec(y)
	for t := 0; t < lanes; t++ {
		for r, v := range s.partials[t][:p.Rows] {
			if v != 0 {
				y[r] += v
			}
		}
	}
	if track {
		p.observe(t0, 1, m)
	}
	return nil
}

// ExecuteParallel runs the packed lanes on the pool and returns the static
// event counts.
func (p *PackedQProgram) ExecuteParallel(y, x []float32, pool *parallel.Pool) (ExecStats, error) {
	if err := p.RunParallel(y, x, pool, nil); err != nil {
		return ExecStats{}, err
	}
	return p.Stats(), nil
}
