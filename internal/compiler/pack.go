package compiler

import (
	"fmt"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// Packed execution backend. The instruction interpreter in exec.go is the
// semantic reference: one Instr per gather/dot with its own Vals/Cols slice
// headers, a switch per instruction, and event counting in the inner loop.
// That layout throws away the regularity the compiler passes worked to
// create — PatDNN and GRIM (see PAPERS.md) both observe that structured
// sparsity only pays off once the generated code is flattened into packed
// arrays with unrolled inner loops. Pack lowers a compiled Program into that
// form: one contiguous vals array, one contiguous column-index array, and a
// per-lane segment-descriptor array, executed by tight unrolled dot kernels.
//
// Determinism contract: packed execution is bit-identical to the
// interpreter. Each output row accumulates its terms in exactly the
// interpreter's order (the unrolled kernels in internal/tensor add in index
// order with a single float64 accumulator per row), rows are visited in the
// same lane-major order, and the parallel merge reuses the interpreter's
// one-lane-per-row invariant. Event counts are static per program — every
// gather and dot width is known at pack time — so ExecStats are precomputed
// once and returned without instrumenting the hot loop.

// Segment kinds. A segment is one gather (or dense window) plus the run of
// row dots that consume it — the packed equivalent of an OpGather followed
// by consecutive OpDotGathered instrs, or a run of same-window OpDotStream
// instrs.
const (
	segGather uint8 = iota // gather ColIdx[Arg:Arg+NC], then dot NR rows
	segStream              // dot NR rows against x[Arg : Arg+NC] directly
)

// PackedSeg is one segment descriptor. Payload rows live at
// Vals[ValOff + i*NC : ...] for i in [0, NR); their output rows are
// Lane.Rows[RowOff : RowOff+NR].
type PackedSeg struct {
	Kind   uint8
	NC     int32 // dot width (gather width / dense window width)
	Arg    int32 // segGather: offset into ColIdx; segStream: first column
	ValOff int32 // offset into Vals
	RowOff int32 // offset into the lane's Rows
	NR     int32 // number of row dots sharing this gather/window
}

// PackedLane is one thread lane: its segment descriptors and flat row list,
// plus the lane's precomputed event counts.
type PackedLane struct {
	Segs   []PackedSeg
	Rows   []int32
	counts laneCounts
}

// PackedProgram is the flattened, cache-friendly form of a Program.
type PackedProgram struct {
	Name       string
	Rows, Cols int
	Format     Format
	ValueBits  int
	// Unroll is the inner dot kernel's unroll factor (1, 2, 4 or 8); every
	// factor produces bit-identical results, the auto-tuner picks by
	// measured time.
	Unroll int
	// Precision selects the kernel tier the hot path executes:
	// PrecisionExact runs the bit-exact float64-accumulation kernels,
	// PrecisionFast the FMA + float32-accumulation family (see
	// precision.go). Fast-tier outputs satisfy the tolerance contract
	// against the exact tier, not bit-equality; Unroll is ignored on the
	// fast path (the fast kernels fix their own vector shape).
	Precision Precision

	Vals   []float32 // all dot payloads, lane-major, contiguous
	ColIdx []int32   // all gather indices, lane-major, contiguous
	Lanes  []PackedLane

	// MaxGather is the widest gather — the scratch buffer size Run needs.
	MaxGather int

	// totalMACs is the program's precomputed work term, summed from the lane
	// counts at pack time, for the fork-join break-even test.
	totalMACs int

	// streamBytes is the static weight bytes streamed per execution
	// (4 bytes per packed float32 value; a batched execution streams the
	// weights once for the whole panel).
	streamBytes int

	// trace, when non-nil, receives one StageKernel span per execution
	// (Run/RunParallel/RunBatch/RunBatchParallel), labeled traceID and the
	// batch width. Event counts are static, so the span plus the program's
	// Stats() fully price an execution without hot-loop instrumentation.
	trace   *obs.Tracer
	traceID int32
}

// SetTracer attaches (or detaches, with nil) a stage tracer to this
// program. id labels the recorded kernel spans — the engine uses the plan's
// matrix index. Not safe to change concurrently with executions.
func (p *PackedProgram) SetTracer(tr *obs.Tracer, id int32) {
	p.trace = tr
	p.traceID = id
}

// TotalMACs reports the program's static multiply-accumulate count per
// execution — the priced work term behind the MACs counter.
func (p *PackedProgram) TotalMACs() int { return p.totalMACs }

// stageKind selects the per-tier kernel span kind.
func (p *PackedProgram) stageKind() obs.StageKind {
	if p.Precision == PrecisionFast {
		return obs.StageKernelFast
	}
	return obs.StageKernel
}

// observe records one finished execution of bw lanes: a kernel-latency
// sample and, with a tracer attached, one kernel span. Work counters
// (MACsTotal, BytesStreamed) are metered once per step by the engine that
// drives the programs, at the plan's prices, not here. Allocation-free.
func (p *PackedProgram) observe(t0 time.Time, bw int, m *obs.Metrics) {
	dur := time.Since(t0).Nanoseconds()
	if m != nil {
		m.KernelLatency.Observe(dur)
	}
	if p.trace != nil {
		p.trace.Record(p.stageKind(), p.traceID, int32(bw), t0.UnixNano(), dur)
	}
}

// DefaultUnroll is the dot-kernel unroll factor used when the caller does
// not tune one.
const DefaultUnroll = 4

// normalizeUnroll maps an arbitrary requested factor onto the implemented
// kernel set {1, 2, 4, 8}; 0 selects DefaultUnroll.
func normalizeUnroll(u int) int {
	switch {
	case u == 0:
		return DefaultUnroll
	case u <= 1:
		return 1
	case u < 4:
		return 2
	case u < 8:
		return 4
	default:
		return 8
	}
}

// Pack lowers a Program into its packed form, validating it up front (row
// and column indices in range, every gathered dot's width matching its
// gather) so the execution hot path can run without per-instruction checks.
// The returned program shares no mutable state with p and is safe for
// concurrent use; per-execution scratch lives in PackedScratch.
func Pack(p *Program, unroll int) (*PackedProgram, error) {
	pp := &PackedProgram{
		Name: p.Name, Rows: p.Rows, Cols: p.Cols,
		Format: p.Format, ValueBits: p.ValueBits,
		Unroll:    normalizeUnroll(unroll),
		Precision: p.Precision,
		Lanes:     make([]PackedLane, len(p.Threads)),
	}
	for t, prog := range p.Threads {
		lane := &pp.Lanes[t]
		// curWidth is the width of the lane's live gather; -1 = none yet
		// (the interpreter starts with an empty buffer, so only zero-width
		// gathered dots are legal before the first gather).
		curWidth := -1
		inGather := false // current segment is the live gather segment
		for i, ins := range prog {
			switch ins.Op {
			case OpGather:
				for _, c := range ins.Cols {
					if int(c) < 0 || int(c) >= p.Cols {
						return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: gather column %d out of range [0,%d)",
							p.Name, t, i, c, p.Cols)
					}
				}
				lane.Segs = append(lane.Segs, PackedSeg{
					Kind: segGather,
					NC:   int32(len(ins.Cols)),
					Arg:  int32(len(pp.ColIdx)),
				})
				pp.ColIdx = append(pp.ColIdx, ins.Cols...)
				if len(ins.Cols) > pp.MaxGather {
					pp.MaxGather = len(ins.Cols)
				}
				curWidth = len(ins.Cols)
				inGather = true
				lane.counts.gathers += len(ins.Cols)
			case OpDotGathered:
				if ins.Row < 0 || ins.Row >= p.Rows {
					return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: row %d out of range [0,%d)",
						p.Name, t, i, ins.Row, p.Rows)
				}
				if curWidth < 0 {
					if len(ins.Vals) != 0 {
						return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: gathered dot before any gather",
							p.Name, t, i)
					}
					// A zero-width dot against the empty initial buffer is
					// legal in the interpreter; model it as an empty gather.
					lane.Segs = append(lane.Segs, PackedSeg{Kind: segGather, Arg: int32(len(pp.ColIdx))})
					curWidth = 0
					inGather = true
				}
				if len(ins.Vals) != curWidth {
					return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: row %d dot width %d vs gather %d",
						p.Name, t, i, ins.Row, len(ins.Vals), curWidth)
				}
				if !inGather {
					// A stream dot ran since the gather, so this dot's
					// payload would not be contiguous with its segment.
					// Compiled lowerings never emit this shape.
					return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: gathered dot after stream dot",
						p.Name, t, i)
				}
				seg := &lane.Segs[len(lane.Segs)-1]
				if seg.NR == 0 {
					seg.ValOff = int32(len(pp.Vals))
					seg.RowOff = int32(len(lane.Rows))
				}
				seg.NR++
				pp.Vals = append(pp.Vals, ins.Vals...)
				lane.Rows = append(lane.Rows, int32(ins.Row))
				lane.counts.macs += len(ins.Vals)
				lane.counts.streamed += len(ins.Vals)
			case OpDotStream:
				if ins.Row < 0 || ins.Row >= p.Rows {
					return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: row %d out of range [0,%d)",
						p.Name, t, i, ins.Row, p.Rows)
				}
				if ins.ColLo < 0 || ins.ColLo+len(ins.Vals) > p.Cols {
					return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: stream window [%d,%d) out of range [0,%d)",
						p.Name, t, i, ins.ColLo, ins.ColLo+len(ins.Vals), p.Cols)
				}
				// Merge consecutive stream dots over the same window into
				// one segment (the whole lane, for a dense lowering).
				var seg *PackedSeg
				if n := len(lane.Segs); !inGather && n > 0 {
					last := &lane.Segs[n-1]
					if last.Kind == segStream && int(last.Arg) == ins.ColLo && int(last.NC) == len(ins.Vals) {
						seg = last
					}
				}
				if seg == nil {
					lane.Segs = append(lane.Segs, PackedSeg{
						Kind:   segStream,
						NC:     int32(len(ins.Vals)),
						Arg:    int32(ins.ColLo),
						ValOff: int32(len(pp.Vals)),
						RowOff: int32(len(lane.Rows)),
					})
					seg = &lane.Segs[len(lane.Segs)-1]
				}
				seg.NR++
				pp.Vals = append(pp.Vals, ins.Vals...)
				lane.Rows = append(lane.Rows, int32(ins.Row))
				lane.counts.macs += len(ins.Vals)
				lane.counts.streamed += len(ins.Vals)
				inGather = false
			default:
				return nil, fmt.Errorf("compiler: pack %s lane %d instr %d: unknown opcode %d",
					p.Name, t, i, ins.Op)
			}
		}
	}
	for t := range pp.Lanes {
		pp.totalMACs += pp.Lanes[t].counts.macs
	}
	pp.streamBytes = 4 * len(pp.Vals)
	return pp, nil
}

// StreamBytes reports the static weight bytes this program streams per
// execution (once per batched execution, regardless of width).
func (p *PackedProgram) StreamBytes() int { return p.streamBytes }

// Stats returns the program's execution event counts. They are static —
// every gather and dot width is fixed at pack time — and identical to what
// the interpreter counts while executing.
func (p *PackedProgram) Stats() ExecStats {
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
func (p *PackedProgram) NumSegs() int {
	n := 0
	for i := range p.Lanes {
		n += len(p.Lanes[i].Segs)
	}
	return n
}

// PackedScratch is the reusable per-goroutine scratch arena of the packed
// executor: the gather buffer for serial runs plus per-lane private
// accumulators and gather buffers for parallel runs. One scratch must not be
// shared by concurrent Run/RunParallel calls; allocate one per goroutine
// (steady-state reuse is what makes Run allocation-free).
type PackedScratch struct {
	xbuf     []float32
	partials [][]float32
	lanebufs [][]float32

	// Batched (RunBatch) buffers: the gather panel and the per-row lane
	// accumulators, plus per-lane private panels for RunBatchParallel.
	// facc/bfaccs are the fast tier's float32 accumulators (the exact tier
	// accumulates in acc/baccs float64).
	pbuf      []float32
	acc       []float64
	facc      []float32
	bpartials [][]float32
	blanebufs [][]float32
	baccs     [][]float64
	bfaccs    [][]float32
}

// NewScratch returns a scratch arena sized for this program's serial path.
// The parallel buffers are grown on first RunParallel.
func (p *PackedProgram) NewScratch() *PackedScratch {
	return &PackedScratch{xbuf: make([]float32, p.MaxGather)}
}

// ensureSerial grows the gather buffer to this program's needs.
func (s *PackedScratch) ensureSerial(p *PackedProgram) {
	s.ensureSerialDims(p.MaxGather)
}

// ensureSerialDims grows the gather buffer for a program with the given
// widest gather. Shared by the float32 and quantized backends.
func (s *PackedScratch) ensureSerialDims(maxGather int) {
	if cap(s.xbuf) < maxGather {
		s.xbuf = make([]float32, maxGather)
	}
}

// ensureParallel grows the per-lane buffers to this program's needs.
func (s *PackedScratch) ensureParallel(p *PackedProgram) {
	s.ensureParallelDims(len(p.Lanes), p.Rows, p.MaxGather)
}

// ensureParallelDims grows the per-lane buffers for a program with the given
// lane count, output rows, and widest gather.
func (s *PackedScratch) ensureParallelDims(lanes, rows, maxGather int) {
	if len(s.partials) < lanes {
		s.partials = append(s.partials, make([][]float32, lanes-len(s.partials))...)
		s.lanebufs = append(s.lanebufs, make([][]float32, lanes-len(s.lanebufs))...)
	}
	for t := 0; t < lanes; t++ {
		if cap(s.partials[t]) < rows {
			s.partials[t] = make([]float32, rows)
		}
		if cap(s.lanebufs[t]) < maxGather {
			s.lanebufs[t] = make([]float32, maxGather)
		}
	}
}

// runLane executes one lane's segments, accumulating into y.
func (p *PackedProgram) runLane(l *PackedLane, y, x, xbuf []float32) {
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
		vals := p.Vals[sg.ValOff : int(sg.ValOff)+len(rows)*nc]
		if p.Precision == PrecisionFast {
			blockDotFast(y, rows, vals, g, nc)
		} else {
			blockDot(y, rows, vals, g, nc, unroll)
		}
	}
}

// blockDotFast is the fast-tier blockDot: the whole segment runs through
// the FMA'd f32-accumulation segment driver when the host has it, and any
// remainder (or the no-SIMD case) falls to per-row fast dots with the same
// f32 index-order semantics. Outputs satisfy the tolerance contract
// against blockDot, not bit-equality.
func blockDotFast(y []float32, rows []int32, vals, g []float32, nc int) {
	ri := tensor.DotSegFastF32(vals, rows, g, y)
	for ; ri < len(rows); ri++ {
		y[rows[ri]] += tensor.DotFastF32(vals[ri*nc:ri*nc+nc], g)
	}
}

// blockDot accumulates one segment's row dots into y: rows are processed in
// pairs so two accumulators share each conversion of the gathered input,
// with per-row accumulation order identical to the serial reference.
func blockDot(y []float32, rows []int32, vals, g []float32, nc, unroll int) {
	ri := 0
	switch unroll {
	case 1:
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := tensor.DotPairF64(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(tensor.DotF64(vals[ri*nc:ri*nc+nc], g))
		}
	case 2:
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := tensor.DotPairF64x2(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(tensor.DotF64x2(vals[ri*nc:ri*nc+nc], g))
		}
	case 8:
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := tensor.DotPairF64x8(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(tensor.DotF64x8(vals[ri*nc:ri*nc+nc], g))
		}
	default: // 4
		for ; ri+2 <= len(rows); ri += 2 {
			s0, s1 := tensor.DotPairF64x4(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[rows[ri]] += float32(s0)
			y[rows[ri+1]] += float32(s1)
		}
		if ri < len(rows) {
			y[rows[ri]] += float32(tensor.DotF64x4(vals[ri*nc:ri*nc+nc], g))
		}
	}
}

// Run executes the program serially on x, writing y = W·x (len Rows). With
// a reused scratch it performs zero heap allocations — the inference-path
// contract the allocation-regression tests enforce. A nil scratch allocates
// one internally (convenience path). Results are bit-identical to the
// interpreter's Execute.
func (p *PackedProgram) Run(y, x []float32, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunAdd(y, x, s)
}

// RunAdd is Run without the clear: y += W·x, each row's dot rounded to
// float32 once and then added — tensor.MatVecAdd's contract, which is what
// lets the nn steppers stage a bias in y and apply the program on top.
func (p *PackedProgram) RunAdd(y, x []float32, s *PackedScratch) error {
	if len(x) != p.Cols || len(y) != p.Rows {
		return fmt.Errorf("compiler: packed Run shape mismatch")
	}
	if s == nil {
		s = p.NewScratch()
	} else {
		s.ensureSerial(p)
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

// Execute runs serially and returns the (static) event counts, mirroring
// the interpreter's Execute signature.
func (p *PackedProgram) Execute(y, x []float32) (ExecStats, error) {
	if err := p.Run(y, x, nil); err != nil {
		return ExecStats{}, err
	}
	return p.Stats(), nil
}

// RunParallel executes the program's lanes on the pool, writing y. Each lane
// gets a private accumulator and gather buffer from the scratch, and the
// merge adds lane partials in lane index order — exactly the interpreter's
// parallel scheme, so results are bit-identical to Run at any worker count.
// A nil pool uses parallel.Default(); a 1-worker pool, a 1-lane program, or
// per-worker work below ParallelBreakEvenMACs runs serially (single-stream
// steps sit far below fork-join break-even — the BENCH_2 regression). A nil
// scratch allocates one internally. The pool's closures cost a few
// allocations per call; the allocation-free path is serial Run.
func (p *PackedProgram) RunParallel(y, x []float32, pool *parallel.Pool, s *PackedScratch) error {
	if pool == nil {
		pool = parallel.Default()
	}
	if pool.Workers() < 2 || len(p.Lanes) < 2 ||
		!ParallelWorthwhile(p.totalMACs, min(pool.Workers(), len(p.Lanes))) {
		return p.Run(y, x, s)
	}
	if len(x) != p.Cols || len(y) != p.Rows {
		return fmt.Errorf("compiler: packed Run shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensureParallel(p)
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
// event counts, mirroring the interpreter's ExecuteParallel signature.
func (p *PackedProgram) ExecuteParallel(y, x []float32, pool *parallel.Pool) (ExecStats, error) {
	if err := p.RunParallel(y, x, pool, nil); err != nil {
		return ExecStats{}, err
	}
	return p.Stats(), nil
}
