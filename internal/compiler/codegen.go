package compiler

import (
	"fmt"

	"rtmobile/internal/quant"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Codegen lowers weight matrices into MatrixStats under the chosen options,
// running the reorder and load-elimination passes and computing the exact
// storage footprint for the selected format.

// CompileMatrix lowers one matrix for a target with the given thread count.
func CompileMatrix(src MatrixSource, opt Options, threads int) (MatrixStats, error) {
	if src.W == nil {
		return MatrixStats{}, fmt.Errorf("compiler: %s has nil weights", src.Name)
	}
	if opt.ValueBits == 0 {
		opt.ValueBits = 16
	}
	w := src.W
	stats := MatrixStats{
		Name: src.Name, Rows: w.Rows, Cols: w.Cols,
		NNZ: w.NNZ(), Format: opt.Format,
	}

	// Per-row work (MACs = nonzeros touched per output element).
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

	// Reorder pass.
	order := make([]int, w.Rows)
	for i := range order {
		order[i] = i
	}
	if opt.Reorder && opt.Format != FormatDense {
		order = Reorder(w)
		stats.Reordered = true
		stats.RowPerm = order
	}
	chunks := assignThreads(order, work, threads, opt.Reorder)
	stats.ThreadMACs = threadMACsFromChunks(chunks, work)

	// Storage footprint.
	switch opt.Format {
	case FormatDense:
		stats.WeightBytes = sparse.DenseBytes(w.Rows, w.Cols, opt.ValueBits)
	case FormatCSR:
		csr := sparse.NewCSR(w)
		stats.WeightBytes = (csr.NNZ()*opt.ValueBits + 7) / 8
		stats.IndexBytes = csr.Bytes(0, 16) // indices + row pointers only
	case FormatBSPC:
		if src.Scheme == nil {
			return MatrixStats{}, fmt.Errorf("compiler: %s requests BSPC without a BSP scheme", src.Name)
		}
		b := sparse.NewBSPC(w, *src.Scheme)
		stats.WeightBytes = (b.NNZ()*opt.ValueBits + 7) / 8
		stats.IndexBytes = b.Bytes(0)
	default:
		return MatrixStats{}, fmt.Errorf("compiler: unknown format %v", opt.Format)
	}

	// Quantized storage: recompute the weight footprint from the real
	// packed layout rather than the bit-width multiplier, so Table
	// II-style accounting reports exactly what the backend streams (per-row
	// scales are metadata, reported separately via NumScales, not here).
	if opt.QuantBits != 0 {
		prog, err := CompileProgram(src, opt, threads)
		if err != nil {
			return MatrixStats{}, err
		}
		pq, err := PackQuant(prog, opt.QuantBits, quant.PerRow)
		if err != nil {
			return MatrixStats{}, err
		}
		stats.WeightBytes = pq.WeightBytes()
	}

	// Input-load analysis (per application of the matrix).
	stats.GatherLoads, stats.InputLoads, stats.EliminatedLoads =
		countLoads(w, src, opt, chunks)
	stats.MaxGatherWidth = maxGatherWidth(w, src, opt)
	return stats, nil
}

// maxGatherWidth returns the widest single indexed gather the generated
// kernel performs: a block's kept-column count under BSPC, a row's nonzero
// count under CSR, zero for dense.
func maxGatherWidth(w *tensor.Matrix, src MatrixSource, opt Options) int {
	switch opt.Format {
	case FormatCSR:
		mx := 0
		for i := 0; i < w.Rows; i++ {
			n := 0
			for _, v := range w.Row(i) {
				if v != 0 {
					n++
				}
			}
			if n > mx {
				mx = n
			}
		}
		return mx
	case FormatBSPC:
		mx := 0
		for _, p := range src.Scheme.Pattern(w) {
			if len(p.KeptCols) > mx {
				mx = len(p.KeptCols)
			}
		}
		return mx
	}
	return 0
}

// countLoads models the input-vector traffic of one GEMV under the format
// and the load-elimination pass. See loadelim.go for the pass itself.
func countLoads(w *tensor.Matrix, src MatrixSource, opt Options, chunks [][]int) (gather, input, eliminated int) {
	switch opt.Format {
	case FormatDense:
		// Sequential streaming of x, fully cacheable: Cols regular loads.
		return 0, w.Cols, 0
	case FormatCSR:
		// Every nonzero gathers x[colIdx] through an index — irregular.
		return w.NNZ(), 0, 0
	case FormatBSPC:
		return bspcLoads(w, *src.Scheme, opt.EliminateRedundantLoads, chunks)
	}
	return 0, 0, 0
}

// CompilePlan lowers all matrices of a model and assembles the frame plan.
func CompilePlan(name string, srcs []MatrixSource, opt Options, threads, timestepsPerFrame, elementwisePerTimestep int) (*Plan, error) {
	p := &Plan{
		ModelName:              name,
		TimestepsPerFrame:      timestepsPerFrame,
		ElementwisePerTimestep: elementwisePerTimestep,
		Options:                opt,
	}
	for _, src := range srcs {
		ms, err := CompileMatrix(src, opt, threads)
		if err != nil {
			return nil, err
		}
		p.Matrices = append(p.Matrices, ms)
	}
	return p, nil
}
