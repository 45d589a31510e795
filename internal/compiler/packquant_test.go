package compiler

import (
	"math"
	"reflect"
	"testing"

	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

var quantBitModes = []int{8, 12, 16}

// TestPackQuantAccuracy sanity-checks the numeric story: the quantized
// output approaches the float32 packed output as bits grow, and 16-bit
// quantization is close on normal-scale weights.
func TestPackQuantAccuracy(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(3, 64, 48, scheme)
	pp, _ := lower(t, MatrixSource{Name: "acc", W: w, Scheme: &scheme}, DefaultOptions(FormatBSPC, 32), 4)
	x := randVec(4, w.Cols)
	ref := make([]float32, w.Rows)
	if err := pp.Run(ref, x, nil); err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for _, bits := range quantBitModes {
		pq := packQuant(pp, bits)
		y := make([]float32, w.Rows)
		if err := pq.Run(y, x, nil); err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for r := range y {
			if e := math.Abs(float64(y[r] - ref[r])); e > worst {
				worst = e
			}
		}
		if worst > prevErr*1.5 { // allow noise, require no blow-up as bits grow
			t.Fatalf("bits=%d worst err %v regressed vs previous %v", bits, worst, prevErr)
		}
		prevErr = worst
		if bits == 16 && worst > 1e-2 {
			t.Fatalf("16-bit quantized output off by %v, want < 1e-2", worst)
		}
	}
}

// TestPackQuantStorage pins the storage accounting: the host streams 4
// bytes per packed value whatever the storage (quantized programs hold
// dequantized float32 values), device WeightBytes are Bits per value
// bit-packed, serialized codes are 1 or 2 bytes each, with one scale per
// row.
func TestPackQuantStorage(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(8, 32, 32, scheme)
	pp, _ := lower(t, MatrixSource{Name: "s", W: w, Scheme: &scheme}, DefaultOptions(FormatBSPC, 32), 2)
	nvals := len(pp.Vals)
	if pp.StreamBytes() != 4*nvals {
		t.Fatalf("float StreamBytes %d, want %d", pp.StreamBytes(), 4*nvals)
	}
	for _, tc := range []struct {
		bits       int
		weightByte int
	}{
		{8, nvals}, {12, (nvals*12 + 7) / 8}, {16, 2 * nvals},
	} {
		pq := packQuant(pp, tc.bits)
		if len(pq.Vals) != nvals || pq.Bits != tc.bits {
			t.Fatalf("bits=%d: %d vals recorded at %d bits, want %d", tc.bits, len(pq.Vals), pq.Bits, nvals)
		}
		if pq.StreamBytes() != 4*nvals {
			t.Fatalf("bits=%d: StreamBytes %d, want %d", tc.bits, pq.StreamBytes(), 4*nvals)
		}
		if s := pq.Sections(); len(s.Vals8)+len(s.Vals16) != nvals || len(s.Vals) != 0 || (tc.bits == 8) != (len(s.Vals8) == nvals) {
			t.Fatalf("bits=%d: sections carry %d int8, %d int16 and %d float32 values, want %d codes",
				tc.bits, len(s.Vals8), len(s.Vals16), len(s.Vals), nvals)
		}
		if pq.WeightBytes() != tc.weightByte {
			t.Fatalf("bits=%d: WeightBytes %d, want %d", tc.bits, pq.WeightBytes(), tc.weightByte)
		}
		if len(pq.Sections().Scales) != w.Rows {
			t.Fatalf("bits=%d: %d scales, want one per row (%d)", tc.bits, len(pq.Sections().Scales), w.Rows)
		}
		if pq.TotalMACs() != pp.TotalMACs() {
			t.Fatalf("bits=%d: TotalMACs %d, want %d", tc.bits, pq.TotalMACs(), pp.TotalMACs())
		}
	}
}

// TestPackQuantIdempotent pins the requantization property the bundle
// round-trip and the engine's bit-equality rely on: quantizing a model whose
// weights are already the dequantized values reproduces identical scales,
// codes and values.
func TestPackQuantIdempotent(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(9, 32, 32, scheme)
	for _, bits := range quantBitModes {
		opt := DefaultOptions(FormatBSPC, 32)
		opt.QuantBits = bits
		pq, _ := lower(t, MatrixSource{Name: "i", W: w, Scheme: &scheme}, opt, 2)
		// Round-trip the matrix through quant and lower it again.
		qm, err := quant.Quantize(w, bits)
		if err != nil {
			t.Fatal(err)
		}
		pq2, _ := lower(t, MatrixSource{Name: "i", W: qm.Dequantize(), Scheme: &scheme}, opt, 2)
		for r := range pq.Scales {
			if pq.Scales[r] != pq2.Scales[r] {
				t.Fatalf("bits=%d row %d: scale %v != requantized %v", bits, r, pq.Scales[r], pq2.Scales[r])
			}
		}
		for i := range pq.Vals {
			if math.Float32bits(pq.Vals[i]) != math.Float32bits(pq2.Vals[i]) {
				t.Fatalf("bits=%d val %d: %v != requantized %v", bits, i, pq.Vals[i], pq2.Vals[i])
			}
		}
		if s, s2 := pq.Sections(), pq2.Sections(); !reflect.DeepEqual(s, s2) {
			t.Fatalf("bits=%d: requantized sections differ", bits)
		}
	}
}

// TestPackQuantRejects covers the validation surface.
func TestPackQuantRejects(t *testing.T) {
	src := MatrixSource{Name: "d", W: tensor.NewMatrix(4, 4)}
	opt := DefaultOptions(FormatDense, 32)
	for _, bits := range []int{1, 4, 7, 9, 13, 24, 32} {
		opt.QuantBits = bits
		if _, _, err := LowerMatrix(src, opt, 2); err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
	opt.QuantBits = 8
	pq, _ := lower(t, src, opt, 2)
	if err := pq.Run(make([]float32, 3), make([]float32, 4), nil); err == nil {
		t.Fatal("short y accepted")
	}
	if err := pq.RunBatch(make([]float32, 4*3), make([]float32, 4*3), 0, nil); err == nil {
		t.Fatal("zero batch width accepted")
	}
}

// TestQuantFootprintMatchesMultiplier pins satellite accounting: with
// Options.QuantBits set, LowerMatrix computes WeightBytes from the real
// packed storage, and that figure agrees with the historical
// bit-width multiplier (stored-values × bits, rounded up) within one byte
// of padding for every format and bit width.
func TestQuantFootprintMatchesMultiplier(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(11, 48, 40, scheme)
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		src := MatrixSource{Name: "fp", W: w}
		if format == FormatBSPC {
			s := scheme
			src.Scheme = &s
		}
		// Stored-value count from the float packed program (== what the old
		// multiplier path charged for).
		pp, _ := lower(t, src, DefaultOptions(format, 32), 4)
		nvals := len(pp.Vals)
		for _, bits := range quantBitModes {
			opt := DefaultOptions(format, 32)
			opt.QuantBits = bits
			_, ms, err := LowerMatrix(src, opt, 4)
			if err != nil {
				t.Fatal(err)
			}
			multiplier := (nvals*bits + 7) / 8
			diff := ms.WeightBytes - multiplier
			if diff < -1 || diff > 1 {
				t.Fatalf("fmt=%s bits=%d: packed footprint %d vs multiplier %d (diff %d > padding)",
					format, bits, ms.WeightBytes, multiplier, diff)
			}
		}
	}
}
