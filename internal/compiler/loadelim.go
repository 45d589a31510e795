package compiler

import "rtmobile/internal/sparse"

// Redundant load elimination (Section IV-B(b)). After BSP pruning, all
// surviving rows of a block share the block's kept-column list, so rows
// processed together need the gathered input values only once: the
// lowering below emits one gather per row group instead of one per row.
// Unstructured sparsity cannot do this — each row's column set differs —
// which is why the paper ties the optimization to BSP. The plan counts the
// pass off the packed program: a gather segment loads its columns once per
// modelled thread its rows fall in, and EliminatedLoads is MACs minus those
// gathers, since a row that re-gathered would load exactly its dot's width
// (codegen.go, count).

// lowerBSPC emits, per row group, one gather segment holding every
// surviving row's dot (when the elimination pass is on); with the pass off,
// each row re-gathers. The blocks of a row group share their surviving rows,
// so the group's gather is its blocks' kept columns concatenated in
// ascending order and every dot spans that whole width: a row is
// accumulated in one float64 chain over ascending columns and rounded once —
// the order tensor.MatVecAdd uses, which makes a BSPC program bit-equal to
// the dense reference on the projected matrix (a pruned weight contributes
// +0 there for any finite input).
func (p *PackedProgram) lowerBSPC(b *sparse.BSPC, eliminate bool) {
	var row []float32
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
		for ri, r := range group[0].RowIdx {
			if ri == 0 || !eliminate {
				p.gather(cols)
			}
			row = row[:0]
			for _, blk := range group {
				nc := len(blk.ColIdx)
				row = append(row, blk.Vals[ri*nc:(ri+1)*nc]...)
			}
			p.dot(int(r), row)
		}
	}
}
