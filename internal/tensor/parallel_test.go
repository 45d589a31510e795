package tensor

import (
	"testing"

	"rtmobile/internal/parallel"
)

// serialKernel runs fn with a 1-worker pool installed, guaranteeing the
// serial reference path.
func serialKernel(fn func()) {
	p := parallel.NewPool(1)
	SetPool(p)
	defer SetPool(nil)
	fn()
}

// withPool runs fn with an n-worker pool installed.
func withPool(n int, fn func()) {
	p := parallel.NewPool(n)
	SetPool(p)
	defer func() {
		SetPool(nil)
		p.Close()
	}()
	fn()
}

// big enough to clear ParallelCutoff (rows*cols = 300*256 = 76800).
const parRows, parCols = 300, 256

func fillNormal(v []float32, seed uint64) {
	rng := NewRNG(seed)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
}

func randParMat(seed uint64, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.RandNormal(NewRNG(seed), 1)
	return m
}

func TestParallelMatVecBitIdentical(t *testing.T) {
	w := randParMat(1, parRows, parCols)
	x := make([]float32, parCols)
	fillNormal(x, 2)

	want := make([]float32, parRows)
	serialKernel(func() { MatVec(want, w, x) })

	for _, workers := range []int{1, 2, 7, parallel.DefaultWorkers()} {
		got := make([]float32, parRows)
		withPool(workers, func() { MatVec(got, w, x) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: MatVec row %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParallelMatVecAddBitIdentical(t *testing.T) {
	w := randParMat(3, parRows, parCols)
	x := make([]float32, parCols)
	fillNormal(x, 4)
	base := make([]float32, parRows)
	fillNormal(base, 5)

	want := CloneVec(base)
	serialKernel(func() { MatVecAdd(want, w, x) })

	for _, workers := range []int{2, 7} {
		got := CloneVec(base)
		withPool(workers, func() { MatVecAdd(got, w, x) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: MatVecAdd row %d differs", workers, i)
			}
		}
	}
}

func TestParallelMatTVecAddBitIdentical(t *testing.T) {
	w := randParMat(6, parRows, parCols)
	x := make([]float32, parRows)
	fillNormal(x, 7)
	// Inject zeros to exercise the xi==0 skip on both paths.
	for i := 0; i < parRows; i += 5 {
		x[i] = 0
	}
	base := make([]float32, parCols)
	fillNormal(base, 8)

	want := CloneVec(base)
	serialKernel(func() { MatTVecAdd(want, w, x) })

	for _, workers := range []int{2, 7} {
		got := CloneVec(base)
		withPool(workers, func() { MatTVecAdd(got, w, x) })
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: MatTVecAdd col %d: %v != %v", workers, j, got[j], want[j])
			}
		}
	}
}

func TestParallelOuterAddBitIdentical(t *testing.T) {
	a := make([]float32, parRows)
	b := make([]float32, parCols)
	fillNormal(a, 9)
	fillNormal(b, 10)
	a[0], a[17] = 0, 0 // exercise the skip

	want := randParMat(11, parRows, parCols)
	got2 := want.Clone()
	got7 := want.Clone()

	serialKernel(func() { OuterAdd(want, a, b) })
	withPool(2, func() { OuterAdd(got2, a, b) })
	withPool(7, func() { OuterAdd(got7, a, b) })

	if !want.Equal(got2) || !want.Equal(got7) {
		t.Fatal("parallel OuterAdd differs from serial")
	}
}

func TestSmallKernelsStaySerial(t *testing.T) {
	// Below the cutoff kernelChunks must refuse to parallelize.
	if p, chunks := kernelChunks(8, 64); p != nil || chunks != nil {
		t.Fatal("tiny kernel was parallelized")
	}
	if p, chunks := kernelChunks(1, ParallelCutoff*2); p != nil || chunks != nil {
		t.Fatal("single-output kernel was parallelized")
	}
}

func TestSetPoolNilRestoresDefault(t *testing.T) {
	SetPool(nil)
	if currentPool() != parallel.Default() {
		t.Fatal("nil SetPool did not restore the default pool")
	}
}
