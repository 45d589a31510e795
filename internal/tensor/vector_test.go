package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAxpy(t *testing.T) {
	y := []float32{1, 1}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy got %v", y)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float32{1, 5, 3}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax([]float32{}) != -1 {
		t.Fatal("ArgMax empty should be -1")
	}
	// Ties resolve to the lowest index.
	if ArgMax([]float32{2, 7, 7}) != 1 {
		t.Fatal("ArgMax tie should pick lowest index")
	}
}

func TestSigmoidRange(t *testing.T) {
	src := []float32{-100, -1, 0, 1, 100}
	dst := make([]float32, len(src))
	Sigmoid(dst, src)
	if dst[2] != 0.5 {
		t.Fatalf("sigmoid(0) = %v", dst[2])
	}
	for i, v := range dst {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid out of range at %d: %v", i, v)
		}
	}
	if dst[0] > 1e-6 || dst[4] < 1-1e-6 {
		t.Fatal("sigmoid tails wrong")
	}
}

func TestTanhOddFunction(t *testing.T) {
	src := []float32{-2, -0.5, 0, 0.5, 2}
	dst := make([]float32, len(src))
	Tanh(dst, src)
	if dst[2] != 0 {
		t.Fatal("tanh(0) != 0")
	}
	if math.Abs(float64(dst[0]+dst[4])) > 1e-6 {
		t.Fatal("tanh not odd")
	}
}

// sumVec returns the float64 sum of v's elements.
func sumVec(v []float32) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s
}

func TestSoftmaxSumsToOne(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	Softmax(dst, src)
	sum := sumVec(dst)
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	for i := 1; i < 4; i++ {
		if dst[i] <= dst[i-1] {
			t.Fatal("softmax should preserve ordering")
		}
	}
}

func TestSoftmaxOverflowSafe(t *testing.T) {
	src := []float32{1000, 1001, 999}
	dst := make([]float32, 3)
	Softmax(dst, src)
	sum := sumVec(dst)
	if math.IsNaN(sum) || math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax not overflow-safe: sum=%v dst=%v", sum, dst)
	}
}

// Property: softmax is invariant under constant shifts of the input.
func TestQuickSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64, shift8 int8) bool {
		rng := NewRNG(seed)
		n := 5
		src := make([]float32, n)
		shifted := make([]float32, n)
		shift := float32(shift8) / 4
		for i := range src {
			src[i] = float32(rng.NormFloat64())
			shifted[i] = src[i] + shift
		}
		a := make([]float32, n)
		b := make([]float32, n)
		Softmax(a, src)
		Softmax(b, shifted)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
