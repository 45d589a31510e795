package tensor

// Dense multiply kernels. The training stack runs on these; the deployed
// inference path instead executes compiler-generated sparse plans (see
// internal/compiler and internal/device), with these kernels serving as the
// correctness reference.
//
// Above a size cutoff the kernels fan work out over the package's worker
// pool (see parallel.go). Partitioning is always by output element — every
// y[i] (or weight row) is produced by exactly one worker running the same
// float operation order as the serial loop — so results are bit-identical
// to serial execution at any worker count.

// MatVec computes y = W·x for W (m×n) and x (n). y must have length m.
func MatVec(y []float32, w *Matrix, x []float32) {
	if len(x) != w.Cols || len(y) != w.Rows {
		panic("tensor: MatVec shape mismatch")
	}
	if p, chunks := kernelChunks(w.Rows, w.Rows*w.Cols); chunks != nil {
		p.For(len(chunks), func(ci int) {
			matVecRange(y, w, x, chunks[ci].Lo, chunks[ci].Hi, false)
		})
		return
	}
	matVecRange(y, w, x, 0, w.Rows, false)
}

// MatVecAddFast is MatVecAdd. It survives as the projection the
// benchmark's fast-epilogue stepper pairs with GRUEpilogueFast and
// SoftmaxFast; no other caller remains.
func MatVecAddFast(y []float32, w *Matrix, x []float32) { MatVecAdd(y, w, x) }

// MatVecAdd computes y += W·x.
func MatVecAdd(y []float32, w *Matrix, x []float32) {
	if len(x) != w.Cols || len(y) != w.Rows {
		panic("tensor: MatVecAdd shape mismatch")
	}
	if p, chunks := kernelChunks(w.Rows, w.Rows*w.Cols); chunks != nil {
		p.For(len(chunks), func(ci int) {
			matVecRange(y, w, x, chunks[ci].Lo, chunks[ci].Hi, true)
		})
		return
	}
	matVecRange(y, w, x, 0, w.Rows, true)
}

// matVecRange computes y[lo:hi] (rows lo..hi-1 of W·x), either assigning
// or accumulating. Each row is a self-contained float64-accumulated dot,
// so row partitioning cannot change results.
func matVecRange(y []float32, w *Matrix, x []float32, lo, hi int, add bool) {
	for i := lo; i < hi; i++ {
		row := w.Row(i)
		s := 0.0
		for j, v := range row {
			s += float64(v) * float64(x[j])
		}
		if add {
			y[i] += float32(s)
		} else {
			y[i] = float32(s)
		}
	}
}

// MatTVecAdd computes y += Wᵀ·x for W (m×n), x (m), y (n). Used by
// backpropagation, which needs the transpose product without materializing
// the transpose.
func MatTVecAdd(y []float32, w *Matrix, x []float32) {
	if len(x) != w.Rows || len(y) != w.Cols {
		panic("tensor: MatTVecAdd shape mismatch")
	}
	if p, chunks := kernelChunks(w.Cols, w.Rows*w.Cols); chunks != nil {
		// Partition output columns: each worker accumulates its column
		// range across all rows in ascending row order — the same
		// per-element addition sequence as the serial loop.
		p.For(len(chunks), func(ci int) {
			matTVecAddCols(y, w, x, chunks[ci].Lo, chunks[ci].Hi)
		})
		return
	}
	matTVecAddCols(y, w, x, 0, w.Cols)
}

// matTVecAddCols accumulates columns [lo, hi) of y += Wᵀ·x.
func matTVecAddCols(y []float32, w *Matrix, x []float32, lo, hi int) {
	for i := 0; i < w.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := w.Row(i)[lo:hi]
		for j, v := range row {
			y[lo+j] += float32(xi * v)
		}
	}
}

// OuterAdd accumulates the outer product a·bᵀ into w: w[i][j] += a[i]*b[j].
// This is the weight-gradient update shape in BPTT.
func OuterAdd(w *Matrix, a, b []float32) {
	if len(a) != w.Rows || len(b) != w.Cols {
		panic("tensor: OuterAdd shape mismatch")
	}
	if p, chunks := kernelChunks(w.Rows, w.Rows*w.Cols); chunks != nil {
		p.For(len(chunks), func(ci int) {
			outerAddRange(w, a, b, chunks[ci].Lo, chunks[ci].Hi)
		})
		return
	}
	outerAddRange(w, a, b, 0, w.Rows)
}

// outerAddRange accumulates rows [lo, hi) of the outer product.
func outerAddRange(w *Matrix, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		row := w.Row(i)
		for j, bj := range b {
			row[j] += float32(ai * bj)
		}
	}
}
