package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. Row-major layout matches the
// access order of the GEMV kernels the compiler generates, and float32 is the
// storage type the paper's CPU path uses (the GPU path narrows to fp16, see
// fp16.go).
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows in FromRows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m's contents with src's. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("tensor: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Equal reports whether the two matrices have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether the two matrices agree element-wise within tol.
func (m *Matrix) AllClose(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// NNZ returns the number of nonzero elements.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0, 1].
func (m *Matrix) Sparsity() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/float64(len(m.Data))
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	return mx
}

// Add accumulates o into m element-wise. Shapes must match.
func (m *Matrix) Add(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub subtracts o from m element-wise. Shapes must match.
func (m *Matrix) Sub(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: Sub shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// RandNormal fills m with N(0, std²) deviates from rng.
func (m *Matrix) RandNormal(rng *RNG, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// RandUniform fills m with uniform deviates in [lo, hi).
func (m *Matrix) RandUniform(rng *RNG, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// XavierInit fills m with the Glorot-uniform distribution for a layer with
// the given fan-in and fan-out; this is the initialization PyTorch-Kaldi
// applies to GRU projections.
func (m *Matrix) XavierInit(rng *RNG, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandUniform(rng, -limit, limit)
}

// String renders a compact description (not the full contents) for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}
