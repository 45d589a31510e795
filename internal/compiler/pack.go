package compiler

import (
	"fmt"
	"math"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// Packed execution backend. The instruction interpreter in exec.go is the
// semantic reference: one Instr per gather/dot with its own Vals/Cols slice
// headers, a switch per instruction, and event counting in the inner loop.
// That layout throws away the regularity the compiler passes worked to
// create — PatDNN and GRIM (see PAPERS.md) both observe that structured
// sparsity only pays off once the generated code is flattened into packed
// arrays with unrolled inner loops. Pack lowers a compiled Program into that
// form: one contiguous value array, one contiguous column-index array, and a
// per-lane segment-descriptor array, executed by tight unrolled dot kernels.
//
// There is one program type with one value type: float32. Quantization is a
// storage format, not a kernel family — PackQuant rounds the values to
// int8/int16 codes with one scale per output row and keeps each weight as
// Scales[row]·float32(q), the formula of quant.QMatrix.Dequantize, so the
// integer width lives in the serialized sections (Sections,
// NewPackedFromSections) and the footprint accounting, never in a kernel.
// The kernel tier (exact or fast) is resolved once, when the program is
// built, into the two segment kernels the lane loops call (packkernels.go) —
// nothing is selected per execution, as in the paper's compiler, which fixes
// every tuning choice offline. The plan's TileConfig is not among them: it
// describes the modelled mobile target's kernel, which internal/device
// prices; the host executor runs one kernel per shape whatever the tile
// says. Lanes are the compiler's load-balancing and statistics unit; the
// executor visits them in index order on the calling goroutine.
//
// Determinism contract, exact tier: programs are bit-identical to the
// interpreter and, accumulated into y, to tensor.MatVecAdd on the matrix
// they were lowered from — every output row accumulates its terms in index
// order in a single float64 and is rounded once. A quantized program is the
// float program of its dequantized values, so it is bit-identical to
// tensor.MatVecAdd on the dequantized matrix. The batched entries run the
// same program over B input vectors laid out as a column-major panel
// (element i of stream l at x[i*B+l]), reading each weight once per step for
// the whole panel; lane l of the output panel is bit-identical to the serial
// entry on lane l's vector, because batch width changes data layout, never
// summation order. The fast tier replaces bit-equality with the tolerance contract of
// precision.go. Event counts are static per program — every gather and dot
// width is known at pack time — so ExecStats are precomputed and returned
// without instrumenting the hot loop, and they are what the plan's counted
// fields are read from (LowerMatrix, codegen.go): the device models price
// the packed program a deployment runs, not a model of it.

// Segment kinds. A segment is one gather (or dense window) plus the run of
// row dots that consume it — the packed equivalent of an OpGather followed
// by consecutive OpDotGathered instrs, or a run of same-window OpDotStream
// instrs.
const (
	segGather uint8 = iota // gather ColIdx[Arg:Arg+NC], then dot NR rows
	segStream              // dot NR rows against x[Arg : Arg+NC] directly
)

// PackedSeg is one segment descriptor. Payload rows live at value offsets
// [ValOff + i*NC, ValOff + (i+1)*NC) for i in [0, NR); their output rows are
// Lane.Rows[RowOff : RowOff+NR].
type PackedSeg struct {
	Kind   uint8
	NC     int32 // dot width (gather width / dense window width)
	Arg    int32 // segGather: offset into ColIdx; segStream: first column
	ValOff int32 // offset into the value array
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
	// ValueBits is the float value width of the source program; 0 on a
	// quantized program, whose storage width is Bits.
	ValueBits int
	// Precision is the kernel tier: PrecisionExact runs the bit-exact
	// float64-accumulation kernels, PrecisionFast the FMA +
	// float32-accumulation family (see precision.go).
	Precision Precision

	// Vals holds all dot payloads, lane-major, contiguous.
	Vals []float32
	// Bits, Scheme and Scales are a quantized program's storage record:
	// Bits 0 is a float program; 8, 12 or 16 means every value is
	// Scales[row]·float32(q) for an integer code q of that width, which is
	// what WeightBytes prices (12-bit codes pack to 1.5 bytes on device) and
	// Sections serializes. Scales always holds one scale per output row
	// (PerTensor repeats the single scale). No kernel reads them.
	Bits   int
	Scheme quant.Scheme
	Scales []float32
	// numScales is the stored scale count of the scheme (1 or Rows) — what
	// a serialized artifact ships.
	numScales int

	ColIdx []int32 // all gather indices, lane-major, contiguous
	Lanes  []PackedLane

	// MaxGather is the widest gather — the scratch buffer size Run needs.
	MaxGather int

	// totalMACs is the program's static work term, summed from the lane
	// counts.
	totalMACs int

	// seg and segBatch are the segment kernels the tier resolves to; see
	// bind.
	seg      segKernel
	segBatch segBatchKernel

	// trace, when non-nil, totals one obs.StageKernel execution per run
	// under traceID. Event counts are static, so the total plus the
	// program's Stats() fully price an execution without hot-loop
	// instrumentation.
	trace   *obs.Tracer
	traceID int32
}

// SetTracer attaches (or detaches, with nil) a stage tracer to this
// program. id labels the recorded kernel totals — the engine uses the plan's
// matrix index. Not safe to change concurrently with executions.
func (p *PackedProgram) SetTracer(tr *obs.Tracer, id int32) {
	p.trace = tr
	p.traceID = id
}

// TotalMACs reports the program's static multiply-accumulate count per
// execution — the priced work term behind the MACs counter.
func (p *PackedProgram) TotalMACs() int { return p.totalMACs }

// StreamBytes reports the static host weight bytes this program streams per
// execution (once per batched execution, regardless of width): 4 bytes per
// value, whatever the storage width.
func (p *PackedProgram) StreamBytes() int { return 4 * len(p.Vals) }

// NumScales reports the stored scale count of a quantized program's scheme
// (1 for PerTensor, Rows for PerRow) — the count a serialized artifact
// ships; 0 for a float program.
func (p *PackedProgram) NumScales() int { return p.numScales }

// WeightBytes returns the device-format weight storage in bytes: the
// storage width per stored value, bit-packed — the footprint Table II
// accounts (12-bit entries pack to 1.5 bytes on device even though a bundle
// stores them as int16). Scales are excluded (accounted like other per-row
// metadata, with the index stream).
func (p *PackedProgram) WeightBytes() int {
	bits := p.Bits
	if bits == 0 {
		bits = p.ValueBits
	}
	return (len(p.Vals)*bits + 7) / 8
}

// observe records one finished execution: a kernel-latency sample and,
// with a tracer attached, one kernel execution in its totals. Work counters
// (MACsTotal, BytesStreamed) are metered once per step by the engine that
// drives the programs, at the plan's prices, not here. Allocation-free.
func (p *PackedProgram) observe(t0 time.Time, m *obs.Metrics) {
	dur := time.Since(t0).Nanoseconds()
	if m != nil {
		m.KernelLatency.Observe(dur)
	}
	if p.trace != nil {
		p.trace.Record(obs.StageKernel, p.traceID, dur)
	}
}

// QuantBitsValid reports whether bits selects an implemented quantized
// packed format (8, 12, or 16; 0 means unquantized).
func QuantBitsValid(bits int) bool {
	return bits == 8 || bits == 12 || bits == 16
}

// Pack lowers a Program into its float32 packed form, validating it up front
// (row and column indices in range, every gathered dot's width matching its
// gather) so the execution hot path can run without per-instruction checks.
// The returned program shares no mutable state with p and is safe for
// concurrent use; per-execution scratch lives in PackedScratch.
//
// The second parameter is ignored. It used to pick a dot-kernel unroll
// factor; there is one kernel per shape now, and the parameter stays only
// because benchmark/layers.go, which this repository's benchmark freezes,
// still passes its tile's (ROADMAP item 1).
func Pack(p *Program, _ int) (*PackedProgram, error) {
	return PackQuant(p, 0, quant.PerRow)
}

// PackQuant is Pack with the value storage chosen: bits 0 keeps float32
// values; 8, 12 or 16 quantizes the packed values symmetrically through
// internal/quant's scale mapping into int8 (8) or int16 (12, 16) codes with
// per-row or per-tensor scales — the storage formats of ESE's 12-bit
// entries, E-RNN's quantized block-circulant weights, and GRIM and CSB-RNN
// (see PAPERS.md) — and keeps each weight as its dequantized float32 value,
// so the program runs the same kernels as a float one and a bundle stores
// the codes at 1 or 2 bytes each. Row scales are computed over the packed
// nonzeros, which equal the row's true nonzeros (every stored value is
// packed exactly once), so requantizing an already-dequantized model
// reproduces identical codes and identical values — the bundle round-trip
// and the engine's bit-equality with its dequantized model rely on this.
// What quantization does not preserve is the original float32 weights; the
// accuracy delta is the engine-level guardrail's job (internal/rtmobile),
// not the executor's.
func PackQuant(p *Program, bits int, scheme quant.Scheme) (*PackedProgram, error) {
	if bits != 0 && !QuantBitsValid(bits) {
		return nil, fmt.Errorf("compiler: PackQuant bits must be 0, 8, 12 or 16, got %d", bits)
	}
	pp, err := lower(p)
	if err != nil {
		return nil, err
	}
	if bits != 0 {
		if err := pp.quantize(bits, scheme); err != nil {
			return nil, err
		}
	}
	pp.bind()
	return pp, nil
}

// lower flattens p's instruction lanes into segments over float32 values.
func lower(p *Program) (*PackedProgram, error) {
	pp := &PackedProgram{
		Name: p.Name, Rows: p.Rows, Cols: p.Cols,
		Format: p.Format, ValueBits: p.ValueBits,
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
	return pp, nil
}

// quantize rounds the program's values to integer codes of the given width
// and replaces each with its dequantized value, Scales[row]·float32(q): one
// rounding, as quant.QMatrix.Dequantize computes it.
func (p *PackedProgram) quantize(bits int, scheme quant.Scheme) error {
	// Row maxAbs over the packed vals. A row's packed values are its true
	// nonzeros (possibly split across segments under column tiling), so this
	// equals the dense row maxAbs restricted to stored weights.
	rowMax := make([]float64, p.Rows)
	p.forEachRowVals(func(row int32, _ int, vals []float32) {
		mx := rowMax[row]
		for _, v := range vals {
			if a := math.Abs(float64(v)); a > mx {
				mx = a
			}
		}
		rowMax[row] = mx
	})
	p.Scales = make([]float32, p.Rows)
	switch scheme {
	case quant.PerTensor:
		mx := 0.0
		for _, m := range rowMax {
			if m > mx {
				mx = m
			}
		}
		sc := quant.ScaleFor(mx, bits)
		for r := range p.Scales {
			p.Scales[r] = sc
		}
		p.numScales = 1
	case quant.PerRow:
		for r := range p.Scales {
			p.Scales[r] = quant.ScaleFor(rowMax[r], bits)
		}
		p.numScales = p.Rows
	default:
		return fmt.Errorf("compiler: PackQuant unknown scheme %v", scheme)
	}

	qmax := quant.QMax(bits)
	p.forEachRowVals(func(row int32, _ int, vals []float32) {
		s := p.Scales[row]
		for i, v := range vals {
			vals[i] = s * float32(quant.ClampRound(float64(v)/float64(s), qmax))
		}
	})
	p.Bits, p.Scheme, p.ValueBits = bits, scheme, 0
	return nil
}

// forEachRowVals walks every packed float32 row-dot payload: fn receives the
// output row, the payload's offset into Vals and its contiguous slice, once
// per (segment, row) pair.
func (p *PackedProgram) forEachRowVals(fn func(row int32, off int, vals []float32)) {
	for t := range p.Lanes {
		l := &p.Lanes[t]
		for si := range l.Segs {
			sg := &l.Segs[si]
			nc := int(sg.NC)
			for i := 0; i < int(sg.NR); i++ {
				off := int(sg.ValOff) + i*nc
				fn(l.Rows[int(sg.RowOff)+i], off, p.Vals[off:off+nc])
			}
		}
	}
}

// Dense scatters the program's values back into its Rows×Cols matrix — the
// inverse of lowering: a gather segment's row payload lands on the columns
// ColIdx lists for it, a stream segment's on the window its Arg opens, and
// every entry no segment stores is zero. A program lowered from the matrix
// it holds (as Compile lowers after rounding) keeps every nonzero, so Dense
// returns that matrix, and lowering and packing it again under the same
// options reproduces the program's sections; that is how a deployment
// re-lowers without keeping a dense copy.
func (p *PackedProgram) Dense() *tensor.Matrix {
	m := tensor.NewMatrix(p.Rows, p.Cols)
	for t := range p.Lanes {
		l := &p.Lanes[t]
		for si := range l.Segs {
			sg := &l.Segs[si]
			nc := int(sg.NC)
			for i := 0; i < int(sg.NR); i++ {
				row := m.Row(int(l.Rows[int(sg.RowOff)+i]))
				vals := p.Vals[int(sg.ValOff)+i*nc : int(sg.ValOff)+(i+1)*nc]
				if sg.Kind == segStream {
					copy(row[sg.Arg:], vals)
					continue
				}
				for j, c := range p.ColIdx[sg.Arg : int(sg.Arg)+nc] {
					row[c] = vals[j]
				}
			}
		}
	}
	return m
}

// Stats returns the program's execution event counts. They are static —
// every gather and dot width is fixed at pack time — identical to what the
// interpreter counts while executing, and the same whatever the storage
// (quantization changes bytes, not events).
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

// PackedScratch is the reusable per-goroutine scratch arena of the packed
// executor, shared by programs of any storage, tier and width. One scratch
// must not be shared by concurrent executions; allocate one per goroutine
// (steady-state reuse is what makes Run and RunBatch allocation-free).
type PackedScratch struct {
	// gather stages gathered input columns: MaxGather values for a serial
	// run, MaxGather×bw (lane-contiguous) for a panel.
	gather []float32
	// acc holds the exact tier's per-lane float64 accumulators for a row
	// pair (2×bw); facc the fast tier's float32 accumulators (bw).
	acc  []float64
	facc []float32
}

// NewScratch returns a scratch arena sized for this program's serial path;
// the panel buffers grow on the first batched execution.
func (p *PackedProgram) NewScratch() *PackedScratch {
	return &PackedScratch{gather: make([]float32, p.MaxGather)}
}

// ensure grows the buffers for a program with the given widest gather at
// width bw.
func (s *PackedScratch) ensure(maxGather, bw int) {
	if cap(s.gather) < maxGather*bw {
		s.gather = make([]float32, maxGather*bw)
	}
	if bw > 1 && cap(s.acc) < 2*bw {
		s.acc = make([]float64, 2*bw)
		s.facc = make([]float32, bw)
	}
}

// runLane executes one lane's segments, accumulating into y.
func (p *PackedProgram) runLane(l *PackedLane, y, x, xbuf []float32) {
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
		p.seg(y, l.Rows[sg.RowOff:int(sg.RowOff)+int(sg.NR)], int(sg.ValOff), nc, g)
	}
}

// runLaneBatch executes one lane's segments over a bw-wide input panel,
// accumulating into the output panel y. The gather panel pbuf stages
// gathered columns lane-contiguously; stream segments slice the input panel
// directly (a window [lo, lo+nc) of columns is the contiguous panel range
// [lo*bw, (lo+nc)*bw)).
func (p *PackedProgram) runLaneBatch(l *PackedLane, y, x []float32, bw int, s *PackedScratch) {
	pbuf := s.gather[:cap(s.gather)]
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
		p.segBatch(y, l.Rows[sg.RowOff:int(sg.RowOff)+int(sg.NR)], int(sg.ValOff), nc, g, bw, s)
	}
}

// Run executes the program on x, writing y = W·x (len Rows). With a reused
// scratch it performs zero heap allocations — the inference-path contract
// the allocation-regression tests enforce. A nil scratch allocates one
// internally (convenience path).
func (p *PackedProgram) Run(y, x []float32, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunAdd(y, x, s)
}

// RunAdd is Run without the clear: y += W·x, each row's dot rounded to
// float32 once and then added — tensor.MatVecAdd's contract, which is what
// lets the nn steppers stage a bias in y and apply the program on top. A
// vector is a width-1 panel.
func (p *PackedProgram) RunAdd(y, x []float32, s *PackedScratch) error {
	return p.RunBatchAdd(y, x, 1, s)
}

// RunBatch executes the program over a bw-wide input panel, writing the
// output panel y (len Rows*bw). Panels are column-major: element i of
// stream l lives at panel[i*bw+l]. With a reused scratch the steady state
// performs zero heap allocations; bw == 1 is exactly Run.
func (p *PackedProgram) RunBatch(y, x []float32, bw int, s *PackedScratch) error {
	tensor.ZeroVec(y)
	return p.RunBatchAdd(y, x, bw, s)
}

// RunBatchAdd is RunBatch without the clear: lane l of y receives RunAdd's
// result on lane l's vector (tensor.MatVecAddBatch's contract). It is the one
// execution body; only the lane loop is chosen by width — scalar gathers and
// the serial segment kernels at bw == 1, panel gathers and the strided
// kernels above, each the faster at its width.
func (p *PackedProgram) RunBatchAdd(y, x []float32, bw int, s *PackedScratch) error {
	if bw < 1 {
		return fmt.Errorf("compiler: packed RunBatch width %d < 1", bw)
	}
	if len(x) != p.Cols*bw || len(y) != p.Rows*bw {
		return fmt.Errorf("compiler: packed RunBatch shape mismatch")
	}
	if s == nil {
		s = &PackedScratch{}
	}
	s.ensure(p.MaxGather, bw)
	m := obs.M()
	track := m != nil || p.trace != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	for t := range p.Lanes {
		if bw == 1 {
			p.runLane(&p.Lanes[t], y, x, s.gather[:cap(s.gather)])
		} else {
			p.runLaneBatch(&p.Lanes[t], y, x, bw, s)
		}
	}
	if track {
		p.observe(t0, m)
	}
	return nil
}
