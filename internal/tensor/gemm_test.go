package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatVecKnown(t *testing.T) {
	w := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	x := []float32{1, 0, -1}
	y := make([]float32, 2)
	MatVec(y, w, x)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec got %v", y)
	}
}

func TestMatVecAddAccumulates(t *testing.T) {
	w := FromRows([][]float32{{1, 1}, {2, 2}})
	x := []float32{1, 1}
	y := []float32{10, 20}
	MatVecAdd(y, w, x)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("MatVecAdd got %v", y)
	}
}

func TestMatTVecAddMatchesExplicitTranspose(t *testing.T) {
	w := randMatrix(4, 5, 7)
	x := make([]float32, 5)
	for i := range x {
		x[i] = float32(i) - 2
	}
	y1 := make([]float32, 7)
	MatTVecAdd(y1, w, x)
	y2 := make([]float32, 7)
	MatVec(y2, w.T(), x)
	for i := range y1 {
		if math.Abs(float64(y1[i]-y2[i])) > 1e-4 {
			t.Fatalf("MatTVecAdd[%d] = %v, explicit transpose = %v", i, y1[i], y2[i])
		}
	}
}

func TestOuterAdd(t *testing.T) {
	w := NewMatrix(2, 3)
	OuterAdd(w, []float32{1, 2}, []float32{3, 4, 5})
	want := FromRows([][]float32{{3, 4, 5}, {6, 8, 10}})
	if !w.Equal(want) {
		t.Fatalf("OuterAdd got %v", w.Data)
	}
}

// matMul returns A·B by the i-k-j triple loop: the reference product the
// MatVec and transpose properties below are checked against.
func matMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for k, aik := range a.Row(i) {
			for j, bkj := range b.Row(k) {
				crow[j] += aik * bkj
			}
		}
	}
	return c
}

// Property: (A·B)·x == A·(B·x) — MatVec composes like the matrix product.
func TestQuickGemmGemvConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 3+int(rng.Intn(5)), 3+int(rng.Intn(5)), 3+int(rng.Intn(5))
		a := NewMatrix(m, k)
		a.RandNormal(rng, 1)
		b := NewMatrix(k, n)
		b.RandNormal(rng, 1)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		// Path 1: (A·B)·x
		y1 := make([]float32, m)
		MatVec(y1, matMul(a, b), x)
		// Path 2: A·(B·x)
		bx := make([]float32, k)
		MatVec(bx, b, x)
		y2 := make([]float32, m)
		MatVec(y2, a, bx)
		for i := range y1 {
			if math.Abs(float64(y1[i]-y2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec is linear — W·(ax + by) == a·Wx + b·Wy.
func TestQuickMatVecLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		w := NewMatrix(6, 4)
		w.RandNormal(rng, 1)
		x := make([]float32, 4)
		y := make([]float32, 4)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
		}
		const a, b = 2.5, -1.25
		combined := make([]float32, 4)
		for i := range combined {
			combined[i] = a*x[i] + b*y[i]
		}
		lhs := make([]float32, 6)
		MatVec(lhs, w, combined)
		wx := make([]float32, 6)
		wy := make([]float32, 6)
		MatVec(wx, w, x)
		MatVec(wy, w, y)
		for i := range lhs {
			rhs := a*wx[i] + b*wy[i]
			if math.Abs(float64(lhs[i]-rhs)) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatVecAddFastMatchesExact: MatVecAddFast is MatVecAdd, bit for bit.
func TestMatVecAddFastMatchesExact(t *testing.T) {
	rng := NewRNG(0x9E3C)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {17, 33}, {64, 100}} {
		w := NewMatrix(dims[0], dims[1])
		for i := range w.Data {
			w.Data[i] = float32(rng.NormFloat64())
		}
		x := make([]float32, dims[1])
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		yExact, yFast := make([]float32, dims[0]), make([]float32, dims[0])
		MatVecAdd(yExact, w, x)
		MatVecAddFast(yFast, w, x)
		for i := range yFast {
			if math.Float32bits(yFast[i]) != math.Float32bits(yExact[i]) {
				t.Errorf("%dx%d y[%d] = %g, exact %g", dims[0], dims[1], i, yFast[i], yExact[i])
			}
		}
	}
}
