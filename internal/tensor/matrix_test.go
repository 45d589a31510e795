package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func randMatrix(seed uint64, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.RandNormal(NewRNG(seed), 1.0)
	return m
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	if m.Data[1*4+2] != 5 {
		t.Fatal("row-major layout violated")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestTransposeInvolution(t *testing.T) {
	m := randMatrix(1, 7, 5)
	if !m.T().T().Equal(m) {
		t.Fatal("transpose is not an involution")
	}
}

func TestTransposeElements(t *testing.T) {
	m := randMatrix(2, 4, 6)
	tr := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := randMatrix(3, 3, 3)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddSubInverse(t *testing.T) {
	a := randMatrix(4, 5, 5)
	b := randMatrix(5, 5, 5)
	orig := a.Clone()
	a.Add(b)
	a.Sub(b)
	if !a.AllClose(orig, 1e-6) {
		t.Fatal("Add then Sub did not restore the matrix")
	}
}

func TestNNZAndSparsity(t *testing.T) {
	m := NewMatrix(2, 5)
	m.Set(0, 0, 1)
	m.Set(1, 4, -2)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if math.Abs(m.Sparsity()-0.8) > 1e-12 {
		t.Fatalf("Sparsity = %v", m.Sparsity())
	}
}

func TestFrobNorm(t *testing.T) {
	m := FromRows([][]float32{{3, 4}})
	if math.Abs(m.FrobNorm()-5) > 1e-6 {
		t.Fatalf("FrobNorm = %v", m.FrobNorm())
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float32{{-7, 3}, {2, 5}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestXavierInitBounds(t *testing.T) {
	m := NewMatrix(50, 40)
	m.XavierInit(NewRNG(1), 40, 50)
	limit := float32(math.Sqrt(6.0 / 90.0))
	for _, v := range m.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	if m.NNZ() == 0 {
		t.Fatal("Xavier init produced all zeros")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"Add":      func() { a.Add(b) },
		"Sub":      func() { a.Sub(b) },
		"CopyFrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: transposing twice is identity for arbitrary shapes.
func TestQuickTransposeRoundTrip(t *testing.T) {
	f := func(seed uint64, r8, c8 uint8) bool {
		rows := int(r8%16) + 1
		cols := int(c8%16) + 1
		m := randMatrix(seed, rows, cols)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
