package compiler

import (
	"fmt"
	"reflect"

	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Codegen lowers each weight matrix exactly once, straight into the one
// segment list of the packed program a deployment runs: the reorder pass
// picks the storage order, the format's encoding fills the segments, and
// the MatrixStats the device models price are counted off that program.
// The modelled target's threads exist only in that count: the rows, in
// storage order, are cut into one contiguous chunk per thread
// (assignThreads, reorder.go), and the plan's per-thread work and gathers
// are read through that cut. The host runs the list as one lane.

// LowerMatrix lowers one matrix, packs it at opt.QuantBits and prices it for
// a target with the given thread count, returning the program a deployment
// executes and the MatrixStats of that very program.
func LowerMatrix(src MatrixSource, opt Options, threads int) (*PackedProgram, MatrixStats, error) {
	if src.W == nil {
		return nil, MatrixStats{}, fmt.Errorf("compiler: %s has nil weights", src.Name)
	}
	if opt.QuantBits != 0 && !QuantBitsValid(opt.QuantBits) {
		return nil, MatrixStats{}, fmt.Errorf("compiler: quantized storage must be 0, 8, 12 or 16 bits, got %d", opt.QuantBits)
	}
	if opt.ValueBits == 0 {
		opt.ValueBits = 16
	}
	w := src.W
	pp := &PackedProgram{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		Format: opt.Format, ValueBits: opt.ValueBits,
	}
	ms := MatrixStats{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		NNZ: w.NNZ(), Format: opt.Format,
	}
	order := identity(w.Rows)
	if opt.Reorder && opt.Format != FormatDense {
		order = Reorder(w)
		ms.Reordered = true
		ms.RowPerm = order
	}

	switch opt.Format {
	case FormatDense:
		// Sequential streaming of x, fully cacheable: Cols regular loads.
		pp.lowerDense(w)
		ms.InputLoads = w.Cols
	case FormatCSR:
		csr := sparse.NewCSR(w)
		pp.lowerCSR(csr, order)
		ms.IndexBytes = csr.Bytes(0, 16) // indices + row pointers only
		for _, n := range csr.RowNNZ() {
			ms.MaxGatherWidth = max(ms.MaxGatherWidth, n)
		}
	case FormatBSPC:
		if src.Scheme == nil {
			return nil, MatrixStats{}, fmt.Errorf("compiler: %s requests BSPC without a BSP scheme", src.Name)
		}
		b := sparse.NewBSPC(w, *src.Scheme)
		pp.lowerBSPC(b, opt.EliminateRedundantLoads)
		ms.IndexBytes = b.Bytes(0)
		ms.MaxGatherWidth = b.MaxBlockCols()
	default:
		return nil, MatrixStats{}, fmt.Errorf("compiler: unknown format %v", opt.Format)
	}
	pp.index()
	if opt.QuantBits != 0 {
		pp.quantize(opt.QuantBits)
	}
	ms.count(pp, threads, opt.Reorder)
	return pp, ms, nil
}

// count sets m's counted fields from pp cut into threads chunks: per-thread
// MACs, the gathers — each gather segment loads its columns once in every
// chunk its rows fall in, which is what load elimination saves — the loads
// that saves against one gather per row dot (zero on CSR, whose rows share
// no gathers, and on dense, which gathers nothing), and the weight bytes.
// The storage order is m.RowPerm (identity when nil); count reports false
// when that is not a permutation of pp's rows.
func (m *MatrixStats) count(pp *PackedProgram, threads int, balance bool) bool {
	order := m.RowPerm
	if order == nil {
		order = identity(pp.Rows)
	} else if !isPermutation(order, pp.Rows) {
		return false
	}
	// A row's MACs are its dot widths; its schedule work is the weights the
	// reorder pass balanced: a streamed row's width, a gathered row's
	// nonzeros.
	macs, work := make([]int, pp.Rows), make([]int, pp.Rows)
	pp.forEachRowVals(func(sg *PackedSeg, row int32, _ int, vals []float32) {
		macs[row] += len(vals)
		if sg.Kind == segStream {
			work[row] += len(vals)
			return
		}
		for _, v := range vals {
			if v != 0 {
				work[row]++
			}
		}
	})
	cut := assignThreads(order, work, threads, balance)
	chunkOf := make([]int, pp.Rows)
	m.ThreadMACs = make([]int, len(cut)-1)
	for t := range m.ThreadMACs {
		for _, r := range order[cut[t]:cut[t+1]] {
			chunkOf[r] = t
			m.ThreadMACs[t] += macs[r]
		}
	}
	m.GatherLoads = 0
	seen := make([]int, len(m.ThreadMACs)) // seen[t] = 1 + the last segment with a row in chunk t
	for si := range pp.Segs {
		sg := &pp.Segs[si]
		if sg.Kind != segGather {
			continue
		}
		for _, r := range pp.RowIdx[sg.RowOff : sg.RowOff+sg.NR] {
			if t := chunkOf[r]; seen[t] != si+1 {
				seen[t] = si + 1
				m.GatherLoads += int(sg.NC)
			}
		}
	}
	m.EliminatedLoads = 0
	if m.Format != FormatDense {
		m.EliminatedLoads = pp.TotalMACs() - m.GatherLoads
	}
	m.WeightBytes = pp.WeightBytes()
	return true
}

// Prices reports whether every counted field of the plan — per-thread MACs,
// gathers, eliminated loads, weight bytes — is that of progs cut into the
// plan's thread count, matrix by matrix: true of every plan CompilePlan
// returns with its programs.
func (p *Plan) Prices(progs []*PackedProgram) bool {
	if len(progs) != len(p.Matrices) {
		return false
	}
	for i, pp := range progs {
		want := p.Matrices[i]
		if pp.Name != want.Name || !want.count(pp, len(want.ThreadMACs), p.Options.Reorder) ||
			!reflect.DeepEqual(want, p.Matrices[i]) {
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

// lowerDense emits every row, in order, into one stream segment over the
// whole input.
func (p *PackedProgram) lowerDense(w *tensor.Matrix) {
	if w.Rows == 0 {
		return
	}
	p.Segs = []PackedSeg{{Kind: segStream, NC: int32(w.Cols)}}
	for r := 0; r < w.Rows; r++ {
		p.dot(r, w.Row(r))
	}
}

// lowerCSR emits, in storage order, one gather of each non-empty row's
// nonzero columns and the row's dot: every nonzero gathers x[colIdx]
// through an index.
func (p *PackedProgram) lowerCSR(csr *sparse.CSR, order []int) {
	for _, r := range order {
		lo, hi := csr.RowPtr[r], csr.RowPtr[r+1]
		if lo == hi {
			continue
		}
		p.gather(csr.ColIdx[lo:hi])
		p.dot(r, csr.Vals[lo:hi])
	}
}

// gather opens a gather segment over cols; the dots that follow consume it.
func (p *PackedProgram) gather(cols []int32) {
	p.Segs = append(p.Segs, PackedSeg{
		Kind: segGather, NC: int32(len(cols)), Arg: int32(len(p.ColIdx)),
		ValOff: int32(len(p.Vals)), RowOff: int32(len(p.RowIdx)),
	})
	p.ColIdx = append(p.ColIdx, cols...)
}

// dot appends row r's payload to the open segment.
func (p *PackedProgram) dot(r int, vals []float32) {
	p.Segs[len(p.Segs)-1].NR++
	p.Vals = append(p.Vals, vals...)
	p.RowIdx = append(p.RowIdx, int32(r))
}

// identity is the identity permutation of n rows.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// isPermutation reports whether order lists each of n rows exactly once.
func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, r := range order {
		if r < 0 || r >= n || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// Program, CompileProgram and Pack exist only because benchmark/layers.go,
// which this repository's benchmark freezes, still compiles a matrix with
// CompileProgram and then calls Pack (ROADMAP item 1(iii)). Nothing else
// uses them.

// Program is the packed program; there is no other lowered form.
type Program = PackedProgram

// CompileProgram is LowerMatrix without the stats.
func CompileProgram(src MatrixSource, opt Options, threads int) (*Program, error) {
	pp, _, err := LowerMatrix(src, opt, threads)
	return pp, err
}

// Pack returns p: CompileProgram's program is already packed. The second
// parameter is ignored.
func Pack(p *Program, _ int) (*PackedProgram, error) { return p, nil }
