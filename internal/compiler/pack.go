package compiler

import (
	"fmt"
	"math"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// Packed execution backend: the one lowered form of a matrix. PatDNN and
// GRIM (see PAPERS.md) both observe that structured sparsity only pays off
// once the generated code is flattened into packed arrays with unrolled
// inner loops, so the lowering (codegen.go) writes straight into that form:
// one contiguous value array, one contiguous column-index array, one row
// list and one segment-descriptor array, executed in order by tight dot
// kernels on the calling goroutine.
//
// There is one program type with one value type: float32. Quantization is a
// storage format, not a kernel family — quantize rounds the values to
// int8/int16 codes with one scale per output row and keeps each weight as
// Scales[row]·float32(q), the formula of quant.QMatrix.Dequantize, so the
// integer width lives in the serialized sections (Sections,
// NewPackedFromSections) and the footprint accounting, never in a kernel.
// The kernel tier (exact or fast) is resolved once, when the program is
// built, into the two segment kernels the run loops call (packkernels.go) —
// nothing is selected per execution, as in the paper's compiler, which fixes
// every tuning choice offline. The plan's TileConfig and thread count are
// not among them: they describe the modelled mobile target's kernel, which
// internal/device prices; the host executor runs one kernel per shape
// whatever the tile says, and one segment list whatever the thread count.
//
// Determinism contract, exact tier: a program accumulated into y is
// tensor.MatVecAdd on the matrix it was lowered from, bit for bit — every
// output row is one dot, accumulated in index order in a single float64 and
// rounded once. A quantized program is the float program of its dequantized
// values, so it is bit-identical to tensor.MatVecAdd on the dequantized
// matrix. The batched entries run the same program over B input vectors laid
// out as a column-major panel (element i of stream l at x[i*B+l]), reading
// each weight once per step for the whole panel; lane l of the output panel
// is bit-identical to the serial entry on lane l's vector, because batch
// width changes data layout, never summation order. The fast tier replaces
// bit-equality with the tolerance contract of precision.go. Event counts are
// static per program — every gather and dot width is known when it is built
// — so the plan's counted fields are read off the program (count,
// codegen.go) without instrumenting the hot loop: the device models price
// the packed program a deployment runs, not a model of it.

// Segment kinds. A segment is one gather (or dense window) plus the run of
// row dots that consume it.
const (
	segGather uint8 = iota // gather ColIdx[Arg:Arg+NC], then dot NR rows
	segStream              // dot NR rows against x[Arg : Arg+NC] directly
)

// PackedSeg is one segment descriptor. Payload rows live at value offsets
// [ValOff + i*NC, ValOff + (i+1)*NC) for i in [0, NR); their output rows are
// RowIdx[RowOff : RowOff+NR].
type PackedSeg struct {
	Kind   uint8
	NC     int32 // dot width (gather width / dense window width)
	Arg    int32 // segGather: offset into ColIdx; segStream: first column
	ValOff int32 // offset into the value array
	RowOff int32 // offset into the program's RowIdx
	NR     int32 // number of row dots sharing this gather/window
}

// PackedProgram is a lowered matrix in its flattened, cache-friendly form.
type PackedProgram struct {
	Name       string
	Rows, Cols int
	Format     Format
	// ValueBits is the float value width the plan prices; 0 on a quantized
	// program, whose storage width is Bits.
	ValueBits int
	// Precision is the kernel tier: PrecisionExact runs the bit-exact
	// float64-accumulation kernels, PrecisionFast the FMA +
	// float32-accumulation family (see precision.go).
	Precision Precision

	// Vals holds all dot payloads, in segment order, contiguous.
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

	ColIdx []int32     // all gather indices, in segment order, contiguous
	Segs   []PackedSeg // the segments, executed in order
	RowIdx []int32     // the segments' output rows

	// MaxGather is the widest gather — the scratch buffer size Run needs.
	MaxGather int

	// totalMACs is the program's static work term, summed over the
	// segments.
	totalMACs int

	// seg and segBatch are the segment kernels the tier resolves to; see
	// bind.
	seg      segKernel
	segBatch segBatchKernel

	// trace, when non-nil, totals one obs.StageKernel execution per run
	// under traceID. Event counts are static, so the total plus the
	// plan's counted fields fully price an execution without hot-loop
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

// index derives the widest gather and the static MAC count from the
// segments.
func (p *PackedProgram) index() {
	for i := range p.Segs {
		sg := &p.Segs[i]
		if sg.Kind == segGather {
			p.MaxGather = max(p.MaxGather, int(sg.NC))
		}
		p.totalMACs += int(sg.NR) * int(sg.NC)
	}
}

// quantize rounds the program's values to integer codes of the given width
// and replaces each with its dequantized value, Scales[row]·float32(q): one
// rounding, as quant.QMatrix.Dequantize computes it.
func (p *PackedProgram) quantize(bits int, scheme quant.Scheme) error {
	// Row maxAbs over the packed vals. A row's packed values are its true
	// nonzeros (possibly split across segments under column tiling), so this
	// equals the dense row maxAbs restricted to stored weights.
	rowMax := make([]float64, p.Rows)
	p.forEachRowVals(func(_ *PackedSeg, row int32, _ int, vals []float32) {
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
		return fmt.Errorf("compiler: unknown quantization scheme %v", scheme)
	}

	qmax := quant.QMax(bits)
	p.forEachRowVals(func(_ *PackedSeg, row int32, _ int, vals []float32) {
		s := p.Scales[row]
		for i, v := range vals {
			vals[i] = s * float32(quant.ClampRound(float64(v)/float64(s), qmax))
		}
	})
	p.Bits, p.Scheme, p.ValueBits = bits, scheme, 0
	return nil
}

// forEachRowVals walks every packed float32 row-dot payload: fn receives the
// segment, the output row, the payload's offset into Vals and its contiguous
// slice, once per (segment, row) pair.
func (p *PackedProgram) forEachRowVals(fn func(sg *PackedSeg, row int32, off int, vals []float32)) {
	for si := range p.Segs {
		sg := &p.Segs[si]
		nc := int(sg.NC)
		for i := 0; i < int(sg.NR); i++ {
			off := int(sg.ValOff) + i*nc
			fn(sg, p.RowIdx[int(sg.RowOff)+i], off, p.Vals[off:off+nc])
		}
	}
}

// Dense scatters the program's values back into its Rows×Cols matrix — the
// inverse of lowering: a gather segment's row payload lands on the columns
// ColIdx lists for it, a stream segment's on the window its Arg opens, and
// every entry no segment stores is zero. A program lowered from the matrix
// it holds (as Compile lowers after rounding) keeps every nonzero, so Dense
// returns that matrix, and lowering it again under the same options
// reproduces the program's sections; that is how a deployment re-lowers
// without keeping a dense copy.
func (p *PackedProgram) Dense() *tensor.Matrix {
	m := tensor.NewMatrix(p.Rows, p.Cols)
	p.forEachRowVals(func(sg *PackedSeg, r int32, _ int, vals []float32) {
		row := m.Row(int(r))
		if sg.Kind == segStream {
			copy(row[sg.Arg:], vals)
			return
		}
		for j, c := range p.ColIdx[sg.Arg : int(sg.Arg)+len(vals)] {
			row[c] = vals[j]
		}
	})
	return m
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

// run executes the segments, accumulating into y.
func (p *PackedProgram) run(y, x, xbuf []float32) {
	for si := range p.Segs {
		sg := &p.Segs[si]
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
		p.seg(y, p.RowIdx[sg.RowOff:int(sg.RowOff)+int(sg.NR)], int(sg.ValOff), nc, g)
	}
}

// runBatch executes the segments over a bw-wide input panel, accumulating
// into the output panel y. The gather panel pbuf stages gathered columns
// lane-contiguously; stream segments slice the input panel directly (a
// window [lo, lo+nc) of columns is the contiguous panel range
// [lo*bw, (lo+nc)*bw)).
func (p *PackedProgram) runBatch(y, x []float32, bw int, s *PackedScratch) {
	pbuf := s.gather[:cap(s.gather)]
	for si := range p.Segs {
		sg := &p.Segs[si]
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
		p.segBatch(y, p.RowIdx[sg.RowOff:int(sg.RowOff)+int(sg.NR)], int(sg.ValOff), nc, g, bw, s)
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
// execution body; only the segment loop is chosen by width — scalar gathers
// and the serial segment kernels at bw == 1, panel gathers and the strided
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
	if bw == 1 {
		p.run(y, x, s.gather[:cap(s.gather)])
	} else {
		p.runBatch(y, x, bw, s)
	}
	if track {
		p.observe(t0, m)
	}
	return nil
}
