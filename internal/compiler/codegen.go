package compiler

import (
	"fmt"
	"reflect"

	"rtmobile/internal/quant"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Codegen lowers each weight matrix exactly once: the schedule (per-row work,
// the reorder pass, thread chunks), then the format's encoding and its
// instruction lanes, then the packed program. The MatrixStats the device
// models price are read off that lowering — the counted fields from the
// packed program's static lane counts, the index footprint, widest gather and
// row permutation from the encoding and reorder it built — so a plan always
// prices the kernel a deployment runs, whatever its storage.

// lowerProgram schedules and lowers one matrix into an interpreter program,
// returning with it the stats only the encoding and the schedule know:
// NNZ, IndexBytes, InputLoads, MaxGatherWidth and the reorder's RowPerm.
// LowerMatrix fills in the counted fields from the packed form.
func lowerProgram(src MatrixSource, opt Options, threads int) (*Program, MatrixStats, error) {
	if src.W == nil {
		return nil, MatrixStats{}, fmt.Errorf("compiler: %s has nil weights", src.Name)
	}
	if opt.ValueBits == 0 {
		opt.ValueBits = 16
	}
	w := src.W
	prog := &Program{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		Format: opt.Format, ValueBits: opt.ValueBits,
		Precision: opt.Precision,
	}
	ms := MatrixStats{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		NNZ: w.NNZ(), Format: opt.Format,
	}
	order, chunks := schedule(w, opt, threads)
	if opt.Reorder && opt.Format != FormatDense {
		ms.Reordered = true
		ms.RowPerm = order
	}

	switch opt.Format {
	case FormatDense:
		// Sequential streaming of x, fully cacheable: Cols regular loads.
		prog.Threads = lowerDense(w, chunks)
		ms.InputLoads = w.Cols
	case FormatCSR:
		csr := sparse.NewCSR(w)
		prog.Threads = lowerCSR(csr, chunks)
		ms.IndexBytes = csr.Bytes(0, 16) // indices + row pointers only
		for _, n := range csr.RowNNZ() {
			ms.MaxGatherWidth = max(ms.MaxGatherWidth, n)
		}
	case FormatBSPC:
		if src.Scheme == nil {
			return nil, MatrixStats{}, fmt.Errorf("compiler: %s requests BSPC without a BSP scheme", src.Name)
		}
		b := sparse.NewBSPC(w, *src.Scheme)
		prog.Threads = lowerBSPC(b, chunks, opt.EliminateRedundantLoads)
		ms.IndexBytes = b.Bytes(0)
		ms.MaxGatherWidth = b.MaxBlockCols()
	default:
		return nil, MatrixStats{}, fmt.Errorf("compiler: unknown format %v", opt.Format)
	}
	return prog, ms, nil
}

// LowerMatrix lowers one matrix for a target with the given thread count and
// packs it at opt.QuantBits, returning the program a deployment executes and
// the MatrixStats of that very program. Every gathered dot is as wide as its
// gather, so without load elimination the gather count equals the MAC count;
// the loads the pass removed are the difference (zero on CSR, whose rows share
// no gathers, and on dense, which gathers nothing).
func LowerMatrix(src MatrixSource, opt Options, threads int) (*PackedProgram, MatrixStats, error) {
	prog, ms, err := lowerProgram(src, opt, threads)
	if err != nil {
		return nil, MatrixStats{}, err
	}
	pp, err := PackQuant(prog, opt.QuantBits, quant.PerRow)
	if err != nil {
		return nil, MatrixStats{}, err
	}
	ms.count(pp)
	return pp, ms, nil
}

// count sets m's counted fields from pp's static lane counts.
func (m *MatrixStats) count(pp *PackedProgram) {
	ex := pp.Stats()
	m.ThreadMACs = ex.ThreadMACs
	m.GatherLoads = ex.GatherLoads
	m.EliminatedLoads = 0
	if m.Format != FormatDense {
		m.EliminatedLoads = pp.TotalMACs() - ex.GatherLoads
	}
	m.WeightBytes = pp.WeightBytes()
}

// Prices reports whether every counted field of the plan — per-thread MACs,
// gathers, eliminated loads, weight bytes — is that of progs, matrix by
// matrix: true of every plan CompilePlan returns with its programs.
func (p *Plan) Prices(progs []*PackedProgram) bool {
	if len(progs) != len(p.Matrices) {
		return false
	}
	for i, pp := range progs {
		want := p.Matrices[i]
		want.count(pp)
		if pp.Name != want.Name || !reflect.DeepEqual(want, p.Matrices[i]) {
			return false
		}
	}
	return true
}

// CompilePlan lowers every matrix of a model once and assembles the frame
// plan from the lowerings, returning the packed programs in source order.
func CompilePlan(name string, srcs []MatrixSource, opt Options, threads, timestepsPerFrame, elementwisePerTimestep int) (*Plan, []*PackedProgram, error) {
	p := &Plan{
		ModelName:              name,
		TimestepsPerFrame:      timestepsPerFrame,
		ElementwisePerTimestep: elementwisePerTimestep,
		Options:                opt,
	}
	progs := make([]*PackedProgram, 0, len(srcs))
	for _, src := range srcs {
		pp, ms, err := LowerMatrix(src, opt, threads)
		if err != nil {
			return nil, nil, err
		}
		p.Matrices = append(p.Matrices, ms)
		progs = append(progs, pp)
	}
	return p, progs, nil
}

// lowerDense emits one streaming dot per row.
func lowerDense(w *tensor.Matrix, chunks [][]int) [][]Instr {
	out := make([][]Instr, len(chunks))
	for t, rows := range chunks {
		for _, r := range rows {
			out[t] = append(out[t], Instr{
				Op: OpDotStream, Row: r, ColLo: 0,
				Vals: w.Row(r),
			})
		}
	}
	return out
}

// lowerCSR emits a per-row gather followed by the row dot: every nonzero
// gathers x[colIdx] through an index.
func lowerCSR(csr *sparse.CSR, chunks [][]int) [][]Instr {
	out := make([][]Instr, len(chunks))
	for t, rows := range chunks {
		for _, r := range rows {
			lo, hi := csr.RowPtr[r], csr.RowPtr[r+1]
			if lo == hi {
				continue
			}
			out[t] = append(out[t],
				Instr{Op: OpGather, Cols: csr.ColIdx[lo:hi]},
				Instr{Op: OpDotGathered, Row: r, Vals: csr.Vals[lo:hi]},
			)
		}
	}
	return out
}
