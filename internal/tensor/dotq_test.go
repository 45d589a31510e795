package tensor

import (
	"math"
	"testing"
)

// The quantized kernels' tests are one table per shape, generic over the
// storage width; the int8 and int16 test names select the column. Every
// table compares bits against refQ over lengths 0…67 (every unroll tail and
// SIMD remainder) and, for the panel kernels, widths 1…16.

// refQ is the specification: dequantize each weight to float64 through the
// scale, then dot in index order — one accumulator, nothing unrolled.
func refQ[T QInt](a []T, scale float32, b []float32) float64 {
	sc := float64(scale)
	s := 0.0
	for i, v := range a {
		s += (sc * float64(v)) * float64(b[i])
	}
	return s
}

// qRows returns k weight rows of length n covering T's whole range (the
// most negative value included), one scale per row, and an activation
// vector.
func qRows[T QInt](seed uint64, k, n int) (rows [][]T, scales []float32, b []float32) {
	rng := NewRNG(seed)
	rows, scales = make([][]T, k), make([]float32, k)
	for r := range rows {
		rows[r] = make([]T, n)
		for i := range rows[r] {
			rows[r][i] = T(rng.Uint64())
		}
		scales[r] = float32(1e-5 + 0.01*rng.Float64())
	}
	b = make([]float32, n)
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	return rows, scales, b
}

// qTestVectors is the fast tier's fixture (dotfast_test.go): one int8 and one
// 12-bit-range int16 row over a shared activation vector, with their scales.
func qTestVectors(n int) ([]int8, []int16, []float32, float32, float32) {
	rng := NewRNG(0xD07)
	a8 := make([]int8, n)
	a16 := make([]int16, n)
	b := make([]float32, n)
	for i := range b {
		a8[i] = int8(int32(uint32(rng.Uint64())%255) - 127)
		a16[i] = int16(int32(uint32(rng.Uint64())%4095) - 2047)
		b[i] = float32(rng.NormFloat64())
	}
	return a8, a16, b, 0.0123, 0.00077
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkDotQ[T QInt](t *testing.T) {
	for n := 0; n <= 67; n++ {
		rows, sc, b := qRows[T](0xD07, 1, n)
		if got, want := DotQF32(rows[0], sc[0], b), refQ(rows[0], sc[0], b); !sameBits(got, want) {
			t.Errorf("n=%d DotQF32 = %v, want %v", n, got, want)
		}
	}
}

func TestDotQ8F32UnrollsBitIdentical(t *testing.T)  { checkDotQ[int8](t) }
func TestDotQ16F32UnrollsBitIdentical(t *testing.T) { checkDotQ[int16](t) }

func checkDotPairQ[T QInt](t *testing.T) {
	for n := 0; n <= 67; n++ {
		rows, sc, b := qRows[T](0xD08, 2, n)
		w0, w1 := refQ(rows[0], sc[0], b), refQ(rows[1], sc[1], b)
		if g0, g1 := DotPairQF32(rows[0], rows[1], sc[0], sc[1], b); !sameBits(g0, w0) || !sameBits(g1, w1) {
			t.Errorf("n=%d DotPairQF32 = (%v,%v), want (%v,%v)", n, g0, g1, w0, w1)
		}
	}
}

func TestDotPairQ8F32BitIdentical(t *testing.T)  { checkDotPairQ[int8](t) }
func TestDotPairQ16F32BitIdentical(t *testing.T) { checkDotPairQ[int16](t) }

// checkDotQuadQ: each of the quad kernel's four accumulators must match the
// specification bit-for-bit, on the portable body and through the exported
// entry — where, on the AVX2 path, the four live in one ymm, and vectorizing
// across rows must not perturb any single row's summation order.
func checkDotQuadQ[T QInt](t *testing.T, quad func(a0, a1, a2, a3 []T, s0, s1, s2, s3 float32, b []float32) (float64, float64, float64, float64)) {
	t.Logf("BatchSIMD=%v", BatchSIMD())
	for n := 0; n <= 67; n++ {
		a, sc, b := qRows[T](0xD09, 4, n)
		var want [4]float64
		for k := range want {
			want[k] = refQ(a[k], sc[k], b)
		}
		g0, g1, g2, g3 := quad(a[0], a[1], a[2], a[3], sc[0], sc[1], sc[2], sc[3], b)
		sc64 := [4]float64{float64(sc[0]), float64(sc[1]), float64(sc[2]), float64(sc[3])}
		portable := dotQuadQ(a[0], a[1], a[2], a[3], &sc64, b)
		for k, got := range [4]float64{g0, g1, g2, g3} {
			if !sameBits(got, want[k]) || !sameBits(portable[k], want[k]) {
				t.Errorf("n=%d row %d: entry %v, portable %v, want %v", n, k, got, portable[k], want[k])
			}
		}
	}
}

func TestDotQuadQ8F32BitIdentical(t *testing.T)  { checkDotQuadQ(t, DotQuadQ8F32) }
func TestDotQuadQ16F32BitIdentical(t *testing.T) { checkDotQuadQ(t, DotQuadQ16F32) }

// checkDotSegQuadQ: the whole-segment driver must produce exactly the bytes
// of the sequential per-row specification — scale lookup, float64 dot in
// index order, float32 narrow, float32 add into y — for every segment width
// and row count, including row remainders the driver must leave untouched
// and output rows hit by more than one group.
func checkDotSegQuadQ[T QInt](t *testing.T, seg func(vals []T, rows []int32, scales, g, y []float32) int) {
	t.Logf("BatchSIMD=%v", BatchSIMD())
	rng := NewRNG(0x5E6)
	for _, nc := range []int{1, 2, 3, 4, 5, 8, 16, 17, 33, 67} {
		for _, nr := range []int{4, 5, 7, 8, 11, 12, 16} {
			vals := make([]T, nr*nc)
			for i := range vals {
				vals[i] = T(rng.Uint64())
			}
			g := make([]float32, nc)
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			ylen := nr + 3
			rows := make([]int32, nr)
			for k := range rows {
				rows[k] = int32((k*5 + 2) % ylen) // some rows repeat across groups
			}
			scales := make([]float32, ylen)
			for i := range scales {
				scales[i] = float32(1e-5 + 0.004*float64(i))
			}
			y := make([]float32, ylen)
			for i := range y {
				y[i] = float32(rng.NormFloat64())
			}
			yRef := append([]float32(nil), y...)
			consumed := seg(vals, rows, scales, g, y)
			if consumed%4 != 0 || consumed > nr {
				t.Fatalf("nc=%d nr=%d consumed=%d rows, want a multiple of 4 ≤ nr", nc, nr, consumed)
			}
			for k := 0; k < consumed; k++ {
				r := rows[k]
				yRef[r] += float32(refQ(vals[k*nc:(k+1)*nc], scales[r], g))
			}
			for i := range y {
				if math.Float32bits(y[i]) != math.Float32bits(yRef[i]) {
					t.Errorf("nc=%d nr=%d y[%d] = %v, want %v", nc, nr, i, y[i], yRef[i])
				}
			}
		}
	}
}

func TestDotSegQuadQ8F32BitIdentical(t *testing.T)  { checkDotSegQuadQ(t, DotSegQuadQ8F32) }
func TestDotSegQuadQ16F32BitIdentical(t *testing.T) { checkDotSegQuadQ(t, DotSegQuadQ16F32) }

// qPanel builds a column-major panel of bw lanes, each lane a distinct
// vector, plus the per-lane views for the serial reference.
func qPanel(n, bw int) ([]float32, [][]float32) {
	rng := NewRNG(0xBA7C)
	panel := make([]float32, n*bw)
	lanes := make([][]float32, bw)
	for l := range lanes {
		lanes[l] = make([]float32, n)
	}
	for i := 0; i < n; i++ {
		for l := 0; l < bw; l++ {
			v := float32(rng.NormFloat64())
			panel[i*bw+l] = v
			lanes[l][i] = v
		}
	}
	return panel, lanes
}

// checkDotBatchQ pins the batched determinism contract: lane l of the
// portable chunk kernel, of the strided entry (the AVX2 kernel on full
// eight-lane chunks when active) and of both halves of the paired entry is
// bit-identical to the serial specification on lane l's vector.
func checkDotBatchQ[T QInt](t *testing.T,
	strided func(a []T, s float32, bp []float32, stride int, out []float64),
	pair func(a0, a1 []T, s0, s1 float32, bp []float32, stride int, out0, out1 []float64)) {
	for bw := 1; bw <= 16; bw++ {
		for n := 0; n <= 67; n++ {
			a, sc, _ := qRows[T](0xD0A, 2, n)
			panel, lanes := qPanel(n, bw)
			out0, out1 := make([]float64, bw), make([]float64, bw)
			check := func(name string, out []float64, row int) {
				t.Helper()
				for l := 0; l < bw; l++ {
					if want := refQ(a[row], sc[row], lanes[l]); !sameBits(out[l], want) {
						t.Errorf("n=%d bw=%d %s lane %d = %v, want %v", n, bw, name, l, out[l], want)
					}
					out[l] = 1e300 // poison: the next kernel must overwrite
				}
			}
			dotQBatchChunkGeneric(a[0], float64(sc[0]), panel, bw, out0)
			check("portable", out0, 0)
			strided(a[0], sc[0], panel, bw, out0)
			check("strided", out0, 0)
			pair(a[0], a[1], sc[0], sc[1], panel, bw, out0, out1)
			check("pair row 0", out0, 0)
			check("pair row 1", out1, 1)
		}
	}
}

func TestDotBatchQ8F32LanesMatchSerial(t *testing.T) {
	checkDotBatchQ(t, DotBatchQ8F32Strided, DotBatchPairQ8F32Strided)
}
func TestDotBatchQ16F32LanesMatchSerial(t *testing.T) {
	checkDotBatchQ(t, DotBatchQ16F32Strided, DotBatchPairQ16F32Strided)
}

// checkDotBatchPairQOffset: lanes of a wider panel addressed through an
// offset (stride > len(out)) — the call shape of lane chunking — still match
// the specification.
func checkDotBatchPairQOffset[T QInt](t *testing.T,
	pair func(a0, a1 []T, s0, s1 float32, bp []float32, stride int, out0, out1 []float64)) {
	const n, bw, off = 33, 19, 3
	panel, lanes := qPanel(n, bw)
	out0, out1 := make([]float64, bw-off), make([]float64, bw-off)
	a, sc, _ := qRows[T](0xD0B, 2, n)
	pair(a[0], a[1], sc[0], sc[1], panel[off:], bw, out0, out1)
	for l := range out0 {
		w0, w1 := refQ(a[0], sc[0], lanes[off+l]), refQ(a[1], sc[1], lanes[off+l])
		if !sameBits(out0[l], w0) || !sameBits(out1[l], w1) {
			t.Errorf("lane %d = (%v,%v), want (%v,%v)", off+l, out0[l], out1[l], w0, w1)
		}
	}
}

func TestDotBatchPairQF32LanesMatchSerial(t *testing.T) {
	checkDotBatchPairQOffset(t, DotBatchPairQ8F32Strided)
	checkDotBatchPairQOffset(t, DotBatchPairQ16F32Strided)
}

func TestDotBatchPairQF32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched rows")
		}
	}()
	DotBatchPairQ8F32Strided(make([]int8, 3), make([]int8, 4), 1, 1, make([]float32, 32), 8, make([]float64, 8), make([]float64, 8))
}
