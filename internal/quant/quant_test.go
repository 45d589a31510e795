package quant

import (
	"math"
	"testing"
	"testing/quick"

	"rtmobile/internal/tensor"
)

func randMat(seed uint64, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.RandNormal(tensor.NewRNG(seed), 1)
	return m
}

// maxError returns the largest absolute reconstruction error of q vs m.
func maxError(q *QMatrix, m *tensor.Matrix) float64 {
	d := q.Dequantize()
	worst := 0.0
	for i := range m.Data {
		if e := math.Abs(float64(d.Data[i] - m.Data[i])); e > worst {
			worst = e
		}
	}
	return worst
}

func TestQuantizeRoundTripBound(t *testing.T) {
	m := randMat(1, 16, 16)
	for _, bits := range []int{8, 12, 16} {
		for _, scheme := range []Scheme{PerTensor, PerRow} {
			q, err := Quantize(m, bits, scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Error bounded by half an LSB of the coarsest scale.
			maxScale := 0.0
			for _, s := range q.Scales {
				if float64(s) > maxScale {
					maxScale = float64(s)
				}
			}
			if e := maxError(q, m); e > maxScale/2+1e-7 {
				t.Fatalf("bits=%d %v: error %v exceeds LSB/2 %v", bits, scheme, e, maxScale/2)
			}
		}
	}
}

func TestQuantizeErrorShrinksWithBits(t *testing.T) {
	m := randMat(2, 20, 20)
	prev := math.Inf(1)
	for _, bits := range []int{4, 8, 12, 16} {
		q, err := Quantize(m, bits, PerTensor)
		if err != nil {
			t.Fatal(err)
		}
		e := maxError(q, m)
		if e >= prev {
			t.Fatalf("error did not shrink at %d bits: %v >= %v", bits, e, prev)
		}
		prev = e
	}
}

func TestQuantizePreservesZeros(t *testing.T) {
	// Pruned weights must stay exactly zero (symmetric quantization).
	m := randMat(3, 10, 10)
	for i := 0; i < len(m.Data); i += 3 {
		m.Data[i] = 0
	}
	q, err := Quantize(m, 8, PerRow)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Dequantize()
	for i := 0; i < len(m.Data); i += 3 {
		if d.Data[i] != 0 {
			t.Fatalf("zero weight became %v after quantization", d.Data[i])
		}
	}
}

func TestQuantizePerRowBeatsPerTensorOnSkewedRows(t *testing.T) {
	// One row has tiny values; per-tensor scale wastes its precision.
	m := tensor.NewMatrix(2, 8)
	rng := tensor.NewRNG(4)
	for c := 0; c < 8; c++ {
		m.Set(0, c, float32(rng.NormFloat64()*10))
		m.Set(1, c, float32(rng.NormFloat64()*0.01))
	}
	qt, _ := Quantize(m, 8, PerTensor)
	qr, _ := Quantize(m, 8, PerRow)
	// Compare error restricted to the small row.
	errOn := func(d *tensor.Matrix) float64 {
		worst := 0.0
		for c := 0; c < 8; c++ {
			if e := math.Abs(float64(d.At(1, c) - m.At(1, c))); e > worst {
				worst = e
			}
		}
		return worst
	}
	if errOn(qr.Dequantize()) >= errOn(qt.Dequantize()) {
		t.Fatal("per-row scale did not help the small-magnitude row")
	}
}

func TestQuantizeAllZeroMatrix(t *testing.T) {
	m := tensor.NewMatrix(4, 4)
	q, err := Quantize(m, 8, PerTensor)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Dequantize().Equal(m) {
		t.Fatal("all-zero matrix mangled")
	}
}

func TestQuantizeValidation(t *testing.T) {
	m := randMat(5, 2, 2)
	if _, err := Quantize(m, 1, PerTensor); err == nil {
		t.Fatal("1 bit accepted")
	}
	if _, err := Quantize(m, 33, PerTensor); err == nil {
		t.Fatal("33 bits accepted")
	}
	if _, err := Quantize(m, 8, Scheme(9)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestQuantizeBytes(t *testing.T) {
	m := randMat(6, 10, 10)
	q, _ := Quantize(m, 12, PerTensor)
	want := (100*12 + 32 + 7) / 8
	if q.Bytes() != want {
		t.Fatalf("Bytes %d, want %d", q.Bytes(), want)
	}
	qr, _ := Quantize(m, 12, PerRow)
	if qr.Bytes() <= q.Bytes() {
		t.Fatal("per-row must cost more scale storage")
	}
}

func TestQuantizeModelWeights(t *testing.T) {
	mats := []*tensor.Matrix{randMat(7, 8, 8), randMat(8, 8, 8)}
	orig := []*tensor.Matrix{mats[0].Clone(), mats[1].Clone()}
	if err := QuantizeModelWeights(mats, 12, PerRow); err != nil {
		t.Fatal(err)
	}
	// Weights were rewritten with dequantized values (close to original).
	for i, m := range mats {
		if m.Equal(orig[i]) {
			t.Fatal("weights not rewritten")
		}
		if !m.AllClose(orig[i], 0.01) {
			t.Fatal("12-bit quantization drifted too far")
		}
	}
	// Empty input is a no-op.
	if err := QuantizeModelWeights(nil, 8, PerTensor); err != nil {
		t.Fatal("empty input mishandled")
	}
	if err := QuantizeModelWeights(mats, 1, PerTensor); err == nil {
		t.Fatal("1-bit quantization accepted")
	}
}

// Property: quantization is idempotent — quantizing a dequantized matrix
// reproduces it exactly.
func TestQuickQuantizeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		m := randMat(seed, 6, 6)
		q, err := Quantize(m, 10, PerRow)
		if err != nil {
			return false
		}
		d := q.Dequantize()
		q2, err := Quantize(d, 10, PerRow)
		if err != nil {
			return false
		}
		return q2.Dequantize().AllClose(d, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
