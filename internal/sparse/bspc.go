package sparse

import (
	"fmt"

	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// BSPC is the paper's Block-based Structured Pruning Compact format
// (Section IV-B(c)). A BSP-pruned matrix has, within each block, nonzeros
// only at the intersections of a kept-column list (shared by the whole
// block — step 1) and the matrix's surviving rows (step 2). BSPC therefore
// stores per block:
//
//   - the kept column indices (one short list per block, not per nonzero —
//     this is the index-array compaction over CSR),
//   - the kept row indices of the block's row group,
//   - a dense payload of the kept-row × kept-col intersection.
//
// It also carries the matrix-reorder permutation (Section IV-B(a)) so the
// runtime can match the reordered weight rows with the right output
// positions.
type BSPC struct {
	Rows, Cols int
	Blocks     []Block
	// RowPerm maps storage row order to original row indices; Blocks'
	// row lists refer to original indices, RowPerm records the reorder
	// chosen by the compiler (identity when no reorder was applied).
	RowPerm []int32
}

// Block is one (row-group × column-block) tile of a BSPC matrix.
type Block struct {
	RowLo, RowHi int32 // row-group extent in original coordinates
	ColLo, ColHi int32
	RowIdx       []int32   // kept rows (absolute), sorted
	ColIdx       []int32   // kept columns (absolute), sorted
	Vals         []float32 // len(RowIdx)*len(ColIdx), row-major
}

// NewBSPC encodes a BSP-pruned matrix given the scheme that produced it
// (the scheme supplies the block grid).
func NewBSPC(m *tensor.Matrix, scheme prune.BSP) *BSPC {
	pats := scheme.Pattern(m)
	b := &BSPC{Rows: m.Rows, Cols: m.Cols, RowPerm: identityPerm(m.Rows)}
	for _, p := range pats {
		blk := Block{
			RowLo: int32(p.RowLo), RowHi: int32(p.RowHi),
			ColLo: int32(p.ColLo), ColHi: int32(p.ColHi),
		}
		for _, r := range p.KeptRows {
			blk.RowIdx = append(blk.RowIdx, int32(r))
		}
		for _, c := range p.KeptCols {
			blk.ColIdx = append(blk.ColIdx, int32(c))
		}
		blk.Vals = make([]float32, len(blk.RowIdx)*len(blk.ColIdx))
		for ri, r := range blk.RowIdx {
			for ci, c := range blk.ColIdx {
				blk.Vals[ri*len(blk.ColIdx)+ci] = m.At(int(r), int(c))
			}
		}
		if len(blk.RowIdx) > 0 && len(blk.ColIdx) > 0 {
			b.Blocks = append(b.Blocks, blk)
		}
	}
	return b
}

func identityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Dense reconstructs the dense matrix.
func (b *BSPC) Dense() *tensor.Matrix {
	m := tensor.NewMatrix(b.Rows, b.Cols)
	for _, blk := range b.Blocks {
		nc := len(blk.ColIdx)
		for ri, r := range blk.RowIdx {
			for ci, c := range blk.ColIdx {
				m.Set(int(r), int(c), blk.Vals[ri*nc+ci])
			}
		}
	}
	return m
}

// MaxBlockCols returns the widest kept-column list across all blocks —
// the gather-buffer size MatVec needs.
func (b *BSPC) MaxBlockCols() int {
	max := 0
	for _, blk := range b.Blocks {
		if nc := len(blk.ColIdx); nc > max {
			max = nc
		}
	}
	return max
}

// MatVec computes y = A·x block by block. Within a block every kept row
// reads the same gathered input slice — the data-reuse property the
// compiler's redundant-load elimination exploits. The gather buffer is
// sized once to the widest block, and row dots run through the shared
// unrolled kernels (same accumulation order as the rolled loop, so the
// result is bit-identical to the straightforward implementation).
func (b *BSPC) MatVec(y, x []float32) {
	if len(x) != b.Cols || len(y) != b.Rows {
		panic("sparse: BSPC MatVec shape mismatch")
	}
	tensor.ZeroVec(y)
	gather := make([]float32, b.MaxBlockCols())
	for _, blk := range b.Blocks {
		nc := len(blk.ColIdx)
		// Gather the block's input entries once (shared across rows).
		g := gather[:nc]
		for ci, c := range blk.ColIdx {
			g[ci] = x[c]
		}
		nr := len(blk.RowIdx)
		ri := 0
		for ; ri+2 <= nr; ri += 2 {
			s0, s1 := tensor.DotPairF64(
				blk.Vals[ri*nc:ri*nc+nc], blk.Vals[(ri+1)*nc:(ri+1)*nc+nc], g)
			y[blk.RowIdx[ri]] += float32(s0)
			y[blk.RowIdx[ri+1]] += float32(s1)
		}
		if ri < nr {
			y[blk.RowIdx[ri]] += float32(tensor.DotF64(blk.Vals[ri*nc:ri*nc+nc], g))
		}
	}
}

// NNZ counts stored values (including explicit zeros inside kept
// intersections — they are part of the dense payload).
func (b *BSPC) NNZ() int {
	n := 0
	for _, blk := range b.Blocks {
		n += len(blk.Vals)
	}
	return n
}

// Bytes returns the footprint: per block a 4×16-bit header and 16-bit row
// and column index lists, payload values at valueBits, plus the 16-bit
// reorder permutation.
func (b *BSPC) Bytes(valueBits int) int {
	bits := len(b.RowPerm) * 16
	for _, blk := range b.Blocks {
		bits += 4 * 16 // block extents
		bits += 16 * (len(blk.RowIdx) + len(blk.ColIdx))
		bits += valueBits * len(blk.Vals)
	}
	return (bits + 7) / 8
}

// String summarizes the encoding.
func (b *BSPC) String() string {
	return fmt.Sprintf("BSPC(%dx%d, %d blocks, %d stored)", b.Rows, b.Cols, len(b.Blocks), b.NNZ())
}

// CompressionVsDense returns dense16 bytes / BSPC bytes at 16-bit values.
func (b *BSPC) CompressionVsDense() float64 {
	return float64(DenseBytes(b.Rows, b.Cols, 16)) / float64(b.Bytes(16))
}
