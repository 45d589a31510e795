package compiler

import (
	"fmt"

	"rtmobile/internal/prune"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Executable programs. Besides the statistics-level MatrixStats the device
// cost models price, the compiler can lower a matrix into an explicit
// instruction sequence — one thread-ordered program per kernel — and
// execute it on real vectors. The executor both computes y = W·x
// (semantics) and counts every event (gathers, streamed bytes, MACs per
// thread), so tests can prove that the numbers the cost model is fed are
// exactly the numbers the generated code would produce.

// OpCode is an executable instruction kind.
type OpCode uint8

const (
	// OpGather loads x[Cols...] into the gather buffer (indexed loads).
	OpGather OpCode = iota
	// OpDotGathered accumulates Vals·xbuf into y[Row] (BSPC/CSR row body;
	// weights stream sequentially).
	OpDotGathered
	// OpDotStream accumulates a dense row: y[Row] += Vals·x[ColLo:ColLo+len].
	OpDotStream
)

// Instr is one instruction of a kernel program.
type Instr struct {
	Op    OpCode
	Row   int       // output row (dot ops)
	ColLo int       // first input column (OpDotStream)
	Cols  []int32   // gather indices (OpGather)
	Vals  []float32 // weight payload (dot ops)
}

// Program is a compiled kernel: per-thread instruction sequences plus the
// shapes needed to execute it.
type Program struct {
	Name       string
	Rows, Cols int
	Format     Format
	ValueBits  int
	Precision  Precision
	Threads    [][]Instr
}

// ExecStats counts the events of one program execution.
type ExecStats struct {
	GatherLoads  int
	StreamedVals int // weight values streamed (sequential)
	ThreadMACs   []int
}

// WeightBytesStreamed returns the weight traffic in bytes at the program's
// value width.
func (s ExecStats) WeightBytesStreamed(valueBits int) int {
	return (s.StreamedVals*valueBits + 7) / 8
}

// TotalMACs sums per-thread MACs.
func (s ExecStats) TotalMACs() int {
	n := 0
	for _, m := range s.ThreadMACs {
		n += m
	}
	return n
}

// CompileProgram lowers one matrix into an executable program under the
// same passes CompileMatrix uses for its statistics (same reorder, same
// thread chunking, same load-elimination decisions).
func CompileProgram(src MatrixSource, opt Options, threads int) (*Program, error) {
	if src.W == nil {
		return nil, fmt.Errorf("compiler: %s has nil weights", src.Name)
	}
	w := src.W
	prog := &Program{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		Format: opt.Format, ValueBits: opt.ValueBits,
		Precision: opt.Precision,
	}

	// Recreate the thread chunking codegen uses.
	work := make([]int, w.Rows)
	switch opt.Format {
	case FormatDense:
		for i := range work {
			work[i] = w.Cols
		}
	default:
		for i := 0; i < w.Rows; i++ {
			n := 0
			for _, v := range w.Row(i) {
				if v != 0 {
					n++
				}
			}
			work[i] = n
		}
	}
	order := make([]int, w.Rows)
	for i := range order {
		order[i] = i
	}
	if opt.Reorder && opt.Format != FormatDense {
		order = Reorder(w)
	}
	chunks := assignThreads(order, work, threads, opt.Reorder)

	switch opt.Format {
	case FormatDense:
		prog.Threads = lowerDense(w, chunks)
	case FormatCSR:
		prog.Threads = lowerCSR(w, chunks)
	case FormatBSPC:
		if src.Scheme == nil {
			return nil, fmt.Errorf("compiler: %s requests BSPC without a scheme", src.Name)
		}
		prog.Threads = lowerBSPC(w, *src.Scheme, chunks, opt.EliminateRedundantLoads)
	default:
		return nil, fmt.Errorf("compiler: cannot lower format %v", opt.Format)
	}
	return prog, nil
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

// lowerCSR emits a per-row gather followed by the row dot.
func lowerCSR(w *tensor.Matrix, chunks [][]int) [][]Instr {
	csr := sparse.NewCSR(w)
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

// lowerBSPC emits, per (thread, row group), one shared gather (when the
// elimination pass is on) and one dot per surviving row; with the pass off,
// each row re-gathers. The blocks of a row group share their surviving rows,
// so the group's gather is its blocks' kept columns concatenated in
// ascending order and every dot spans that whole width: a row is accumulated
// in one float64 chain over ascending columns and rounded once — the order
// tensor.MatVecAdd uses, which makes a BSPC program bit-equal to the dense
// reference on the projected matrix (a pruned weight contributes +0 there
// for any finite input). Gather and stream counts equal the per-block
// lowering's: each (thread, block) pair still loads the block's kept columns
// exactly once.
func lowerBSPC(w *tensor.Matrix, scheme prune.BSP, chunks [][]int, eliminate bool) [][]Instr {
	b := sparse.NewBSPC(w, scheme)
	threadOf := make([]int, w.Rows)
	for i := range threadOf {
		threadOf[i] = -1
	}
	for t, rows := range chunks {
		for _, r := range rows {
			threadOf[r] = t
		}
	}
	out := make([][]Instr, len(chunks))
	// NewBSPC lists blocks row group by row group, column blocks ascending.
	for lo := 0; lo < len(b.Blocks); {
		hi := lo + 1
		for hi < len(b.Blocks) && b.Blocks[hi].RowLo == b.Blocks[lo].RowLo {
			hi++
		}
		group := b.Blocks[lo:hi]
		lo = hi
		var cols []int32
		for _, blk := range group {
			cols = append(cols, blk.ColIdx...)
		}
		gathered := make(map[int]bool)
		for ri, r := range group[0].RowIdx {
			t := threadOf[r]
			if t < 0 {
				continue
			}
			if !eliminate || !gathered[t] {
				out[t] = append(out[t], Instr{Op: OpGather, Cols: cols})
				gathered[t] = true
			}
			vals := make([]float32, 0, len(cols))
			for _, blk := range group {
				nc := len(blk.ColIdx)
				vals = append(vals, blk.Vals[ri*nc:(ri+1)*nc]...)
			}
			out[t] = append(out[t], Instr{Op: OpDotGathered, Row: int(r), Vals: vals})
		}
	}
	return out
}

// laneCounts are one thread-lane's event counts; the executors sum them
// into ExecStats in lane index order.
type laneCounts struct {
	gathers  int
	streamed int
	macs     int
}

// runLane executes one thread-lane's instruction sequence, accumulating
// row results into y (indexed by absolute row) and gathering through xbuf
// (cleared at each OpGather; pass a buffer with capacity len(x) to avoid
// growth).
func runLane(prog []Instr, y, x, xbuf []float32) (laneCounts, error) {
	var c laneCounts
	for _, ins := range prog {
		switch ins.Op {
		case OpGather:
			xbuf = xbuf[:0]
			for _, col := range ins.Cols {
				xbuf = append(xbuf, x[col])
			}
			c.gathers += len(ins.Cols)
		case OpDotGathered:
			if len(ins.Vals) != len(xbuf) {
				return c, fmt.Errorf("compiler: row %d dot width %d vs gather %d",
					ins.Row, len(ins.Vals), len(xbuf))
			}
			s := 0.0
			for i, v := range ins.Vals {
				s += float64(v) * float64(xbuf[i])
			}
			y[ins.Row] += float32(s)
			c.macs += len(ins.Vals)
			c.streamed += len(ins.Vals)
		case OpDotStream:
			s := 0.0
			for i, v := range ins.Vals {
				s += float64(v) * float64(x[ins.ColLo+i])
			}
			y[ins.Row] += float32(s)
			c.macs += len(ins.Vals)
			c.streamed += len(ins.Vals)
		default:
			return c, fmt.Errorf("compiler: unknown opcode %d", ins.Op)
		}
	}
	return c, nil
}

// Execute runs the program on x, writing y (len Rows) and returning the
// event counts. Threads execute deterministically in index order; each
// thread's partial results accumulate into y (every row belongs to exactly
// one thread).
func (p *Program) Execute(y, x []float32) (ExecStats, error) {
	if len(x) != p.Cols || len(y) != p.Rows {
		return ExecStats{}, fmt.Errorf("compiler: Execute shape mismatch")
	}
	tensor.ZeroVec(y)
	stats := ExecStats{ThreadMACs: make([]int, len(p.Threads))}
	xbuf := make([]float32, 0, p.Cols)
	for t, prog := range p.Threads {
		c, err := runLane(prog, y, x, xbuf)
		if err != nil {
			return ExecStats{}, err
		}
		stats.GatherLoads += c.gathers
		stats.StreamedVals += c.streamed
		stats.ThreadMACs[t] = c.macs
	}
	return stats, nil
}

// NumInstrs counts instructions across threads.
func (p *Program) NumInstrs() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}
