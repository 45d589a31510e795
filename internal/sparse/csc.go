package sparse

import "rtmobile/internal/tensor"

// CSC is compressed sparse column — the format ESE stores pruned LSTM
// weights in on FPGA.
type CSC struct {
	Rows, Cols int
	ColPtr     []int32
	RowIdx     []int32
	Vals       []float32
}

// NewCSC compresses a dense matrix column-wise.
func NewCSC(m *tensor.Matrix) *CSC {
	c := &CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: make([]int32, m.Cols+1)}
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if v := m.At(i, j); v != 0 {
				c.RowIdx = append(c.RowIdx, int32(i))
				c.Vals = append(c.Vals, v)
			}
		}
		c.ColPtr[j+1] = int32(len(c.Vals))
	}
	return c
}

// NNZ returns the stored nonzero count.
func (c *CSC) NNZ() int { return len(c.Vals) }

// Dense reconstructs the dense matrix.
func (c *CSC) Dense() *tensor.Matrix {
	m := tensor.NewMatrix(c.Rows, c.Cols)
	for j := 0; j < c.Cols; j++ {
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			m.Set(int(c.RowIdx[k]), j, c.Vals[k])
		}
	}
	return m
}

// MatVec computes y = A·x by column scattering.
func (c *CSC) MatVec(y, x []float32) {
	if len(x) != c.Cols || len(y) != c.Rows {
		panic("sparse: CSC MatVec shape mismatch")
	}
	tensor.ZeroVec(y)
	for j := 0; j < c.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			y[c.RowIdx[k]] += c.Vals[k] * xj
		}
	}
}

// eseEntries counts the entries ESE stores for this matrix: each nonzero
// carries a 4-bit *relative* row index (distance from the previous nonzero
// in the column); whenever a gap exceeds 16, padding zero entries are
// inserted to bridge it. Values are 12-bit in the original design (12-bit
// quantization + 4-bit index = 16 bits per entry).
func (c *CSC) eseEntries() int {
	n := 0
	for j := 0; j < c.Cols; j++ {
		prev := int32(-1)
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			// Each stored entry can encode a relative offset of at most
			// 16 (4 bits, offset-1 in 0..15). Larger gaps need pad zeros.
			for gap := c.RowIdx[k] - prev; gap > 16; gap -= 16 {
				n++
			}
			n++
			prev = c.RowIdx[k]
		}
	}
	return n
}

// BytesESE returns the ESE storage footprint: 16 bits per stored entry
// (12-bit value + 4-bit relative index) plus 32-bit column pointers.
func (c *CSC) BytesESE() int {
	bits := c.eseEntries()*16 + len(c.ColPtr)*32
	return (bits + 7) / 8
}

// EffectiveCompressionESE returns dense-bytes / ESE-bytes at 16-bit dense
// values — the "overall compression rate taking into account indices" the
// paper says limits ESE to ~8× despite ~12× weight sparsity.
func (c *CSC) EffectiveCompressionESE() float64 {
	return float64(DenseBytes(c.Rows, c.Cols, 16)) / float64(c.BytesESE())
}
