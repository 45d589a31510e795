package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// Adjoint property: <W·x, y> == <x, Wᵀ·y>. MatVec and MatTVecAdd are used
// as forward/backward pairs in backpropagation; this identity is exactly
// what makes the computed gradients correct.
func TestQuickMatVecAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 3+int(rng.Intn(8)), 3+int(rng.Intn(8))
		w := NewMatrix(m, n)
		w.RandNormal(rng, 1)
		x := make([]float32, n)
		y := make([]float32, m)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range y {
			y[i] = float32(rng.NormFloat64())
		}
		wx := make([]float32, m)
		MatVec(wx, w, x)
		wty := make([]float32, n)
		MatTVecAdd(wty, w, y)
		lhs := rolledDot(wx, y)
		rhs := rolledDot(x, wty)
		return math.Abs(lhs-rhs) < 1e-3*(math.Abs(lhs)+math.Abs(rhs)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// OuterAdd is the gradient of MatVec wrt W: d/dW <W·x, g> = g·xᵀ. Check
// the directional-derivative identity <OuterAdd(g,x) ⊙ D, 1> == <D·x, g>
// for arbitrary perturbation D.
func TestQuickOuterAddIsMatVecGradient(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 3+int(rng.Intn(6)), 3+int(rng.Intn(6))
		x := make([]float32, n)
		g := make([]float32, m)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		grad := NewMatrix(m, n)
		OuterAdd(grad, g, x)
		d := NewMatrix(m, n)
		d.RandNormal(rng, 1)
		// <grad, D>_F
		lhs := 0.0
		for i := range grad.Data {
			lhs += float64(grad.Data[i]) * float64(d.Data[i])
		}
		// <D·x, g>
		dx := make([]float32, m)
		MatVec(dx, d, x)
		rhs := rolledDot(dx, g)
		return math.Abs(lhs-rhs) < 1e-3*(math.Abs(lhs)+math.Abs(rhs)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Transpose reverses products: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := NewMatrix(4, 6)
		b := NewMatrix(6, 5)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		lhs := matMul(a, b).T()
		rhs := matMul(b.T(), a.T())
		return lhs.AllClose(rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
