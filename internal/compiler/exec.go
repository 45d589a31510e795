package compiler

import (
	"fmt"

	"rtmobile/internal/tensor"
)

// Executable programs. Lowering a matrix (codegen.go) produces an explicit
// instruction sequence — one thread-ordered lane per kernel thread — which
// this interpreter executes on real vectors, computing y = W·x and counting
// every event (gathers, streamed values, MACs per thread). It is the
// semantic reference the packed backend (pack.go) is tested against; the
// plan's counts are read off the packed form of the same lowering, so the
// numbers the cost models are fed are the numbers this interpreter counts.

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

// TotalMACs sums per-thread MACs.
func (s ExecStats) TotalMACs() int {
	n := 0
	for _, m := range s.ThreadMACs {
		n += m
	}
	return n
}

// CompileProgram lowers one matrix into an executable program: the one
// lowering LowerMatrix packs and counts (codegen.go).
func CompileProgram(src MatrixSource, opt Options, threads int) (*Program, error) {
	prog, _, err := lowerProgram(src, opt, threads)
	return prog, err
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
