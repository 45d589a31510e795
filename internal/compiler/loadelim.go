package compiler

import "rtmobile/internal/sparse"

// Redundant load elimination (Section IV-B(b)). After BSP pruning, all
// surviving rows of a block share the block's kept-column list, so a thread
// processing several such rows needs the gathered input values only once:
// the lowering below emits one gather per (thread, row group) instead of one
// per row. Unstructured sparsity cannot do this — each row's column set
// differs — which is why the paper ties the optimization to BSP. The plan
// counts the pass off the packed program: EliminatedLoads is MACs minus
// GatherLoads, since a row that re-gathered would load exactly its dot's
// width (codegen.go, LowerMatrix).

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
func lowerBSPC(b *sparse.BSPC, chunks [][]int, eliminate bool) [][]Instr {
	threadOf := make([]int, b.Rows)
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
