package tensor

import (
	"math"
	"testing"
)

// Fast-tier equivalence suite. The exact tier is the oracle: every fast
// kernel's output must satisfy FastClose against the float64-accumulated
// reference, across remainder lengths that exercise the 32-wide, 16-wide,
// 8-wide, and scalar-tail paths plus the AVX-512 threshold.

var fastTestLens = []int{0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257, 1024}

func fastTestVectors(n int, seed uint64) (a, b []float32, sumAbs float64) {
	rng := NewRNG(seed)
	a = make([]float32, n)
	b = make([]float32, n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
		sumAbs += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return a, b, sumAbs
}

func TestDotFastF32MatchesExactWithinBound(t *testing.T) {
	for _, n := range fastTestLens {
		a, b, sumAbs := fastTestVectors(n, 0xFA57+uint64(n))
		want := float32(DotF64(a, b))
		got := DotFastF32(a, b)
		if !FastClose(got, want, FastULPBound(n), FastDotBound(n, sumAbs)) {
			t.Errorf("n=%d: DotFastF32 = %g, exact %g, ulp=%d", n, got, want, ULPDiff32(got, want))
		}
	}
}

func TestDotQFastMatchesExactWithinBound(t *testing.T) {
	for _, n := range fastTestLens {
		a8, a16, b, sc8, sc16 := qTestVectors(n)
		sumAbs8, sumAbs16 := 0.0, 0.0
		for i := range b {
			sumAbs8 += math.Abs(float64(sc8) * float64(a8[i]) * float64(b[i]))
			sumAbs16 += math.Abs(float64(sc16) * float64(a16[i]) * float64(b[i]))
		}
		want8 := float32(DotQF32(a8, sc8, b))
		if got := DotQ8FastF32(a8, sc8, b); !FastClose(got, want8, FastULPBound(n), FastDotBound(n, sumAbs8)) {
			t.Errorf("n=%d: DotQ8FastF32 = %g, exact %g", n, got, want8)
		}
		want16 := float32(DotQF32(a16, sc16, b))
		if got := DotQ16FastF32(a16, sc16, b); !FastClose(got, want16, FastULPBound(n), FastDotBound(n, sumAbs16)) {
			t.Errorf("n=%d: DotQ16FastF32 = %g, exact %g", n, got, want16)
		}
	}
}

// segFastCase builds an nr-row contiguous panel with shuffled output rows
// and per-row scales.
func segFastCase(nr, nc int, seed uint64) (vals []float32, q8 []int8, q16 []int16, rows []int32, scales, g, y []float32) {
	rng := NewRNG(seed)
	vals = make([]float32, nr*nc)
	q8 = make([]int8, nr*nc)
	q16 = make([]int16, nr*nc)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
		q8[i] = int8(int32(uint32(rng.Uint64())%255) - 127)
		q16[i] = int16(int32(uint32(rng.Uint64())%4095) - 2047)
	}
	nrows := nr + 3 // y larger than the row list; rows shuffled, unique
	rows = make([]int32, nr)
	perm := rng.Perm(nrows)
	for k := range rows {
		rows[k] = int32(perm[k])
	}
	scales = make([]float32, nrows)
	for i := range scales {
		scales[i] = float32(0.001 + rng.Float64()*0.01)
	}
	g = make([]float32, nc)
	y = make([]float32, nrows)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	for i := range y {
		y[i] = float32(rng.NormFloat64())
	}
	return
}

func TestDotSegFastF32MatchesExact(t *testing.T) {
	for _, nr := range []int{1, 2, 3, 4, 5, 9, 16} {
		for _, nc := range []int{1, 3, 8, 16, 33, 100} {
			vals, _, _, rows, _, g, y := segFastCase(nr, nc, uint64(nr*1000+nc))
			yExact := append([]float32(nil), y...)
			yFast := append([]float32(nil), y...)
			for k := 0; k < nr; k++ {
				yExact[rows[k]] += float32(DotF64(vals[k*nc:(k+1)*nc], g))
			}
			consumed := DotSegFastF32(vals, rows, g, yFast)
			if consumed != 0 && consumed != nr {
				t.Fatalf("nr=%d nc=%d: consumed %d rows", nr, nc, consumed)
			}
			for k := consumed; k < nr; k++ {
				yFast[rows[k]] += DotFastF32(vals[k*nc:(k+1)*nc], g)
			}
			for i := range yFast {
				if !FastClose(yFast[i], yExact[i], FastULPBound(nc), FastDotBound(nc, 4*float64(nc))) {
					t.Errorf("nr=%d nc=%d y[%d] = %g, exact %g", nr, nc, i, yFast[i], yExact[i])
				}
			}
		}
	}
}

func TestDotSegQFastMatchesExact(t *testing.T) {
	for _, nr := range []int{1, 3, 4, 7, 12} {
		for _, nc := range []int{1, 7, 16, 24, 65} {
			_, q8, q16, rows, scales, g, y := segFastCase(nr, nc, uint64(nr*2000+nc))
			y8Exact := append([]float32(nil), y...)
			y8Fast := append([]float32(nil), y...)
			y16Exact := append([]float32(nil), y...)
			y16Fast := append([]float32(nil), y...)
			for k := 0; k < nr; k++ {
				r := rows[k]
				y8Exact[r] += float32(DotQF32(q8[k*nc:(k+1)*nc], scales[r], g))
				y16Exact[r] += float32(DotQF32(q16[k*nc:(k+1)*nc], scales[r], g))
			}
			c8 := DotSegQ8FastF32(q8, rows, scales, g, y8Fast)
			for k := c8; k < nr; k++ {
				r := rows[k]
				y8Fast[r] += DotQ8FastF32(q8[k*nc:(k+1)*nc], scales[r], g)
			}
			c16 := DotSegQ16FastF32(q16, rows, scales, g, y16Fast)
			for k := c16; k < nr; k++ {
				r := rows[k]
				y16Fast[r] += DotQ16FastF32(q16[k*nc:(k+1)*nc], scales[r], g)
			}
			// Per-output bound: quantized magnitudes are scale·qmax·|g|.
			atol8 := FastDotBound(nc, 0.02*127*4*float64(nc))
			atol16 := FastDotBound(nc, 0.02*2047*4*float64(nc))
			for i := range y {
				if !FastClose(y8Fast[i], y8Exact[i], FastULPBound(nc), atol8) {
					t.Errorf("q8 nr=%d nc=%d y[%d] = %g, exact %g", nr, nc, i, y8Fast[i], y8Exact[i])
				}
				if !FastClose(y16Fast[i], y16Exact[i], FastULPBound(nc), atol16) {
					t.Errorf("q16 nr=%d nc=%d y[%d] = %g, exact %g", nr, nc, i, y16Fast[i], y16Exact[i])
				}
			}
		}
	}
}

func TestDotBatchFastStridedMatchesExact(t *testing.T) {
	rng := NewRNG(0xBA7C4)
	for _, n := range []int{0, 1, 2, 3, 9, 33, 128} {
		for _, lanes := range []int{1, 5, 8, 13, 16, 24} {
			a := make([]float32, n)
			a8 := make([]int8, n)
			a16 := make([]int16, n)
			bp := make([]float32, maxInt(n, 1)*lanes)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
				a8[i] = int8(int32(uint32(rng.Uint64())%255) - 127)
				a16[i] = int16(int32(uint32(rng.Uint64())%4095) - 2047)
			}
			for i := range bp {
				bp[i] = float32(rng.NormFloat64())
			}
			sc := float32(0.017)

			exact := make([]float64, lanes)
			outF := make([]float32, lanes)
			DotBatchF64Strided(a, bp, lanes, exact)
			DotBatchFastF32Strided(a, bp, lanes, outF)
			atol := FastDotBound(n, 4*float64(maxInt(n, 1)))
			for l := range outF {
				if !FastClose(outF[l], float32(exact[l]), FastULPBound(n), atol) {
					t.Errorf("f32 n=%d lanes=%d out[%d] = %g, exact %g", n, lanes, l, outF[l], exact[l])
				}
			}

			out8 := make([]float32, lanes)
			DotQ8BatchFastF32Strided(a8, sc, bp, lanes, out8)
			atolQ := FastDotBound(n, float64(sc)*127*4*float64(maxInt(n, 1)))
			for l := range out8 {
				want := 0.0
				for i := range a8 {
					want += (float64(sc) * float64(a8[i])) * float64(bp[i*lanes+l])
				}
				if !FastClose(out8[l], float32(want), FastULPBound(n), atolQ) {
					t.Errorf("q8 n=%d lanes=%d out[%d] = %g, exact %g", n, lanes, l, out8[l], want)
				}
			}

			out16 := make([]float32, lanes)
			DotQ16BatchFastF32Strided(a16, sc, bp, lanes, out16)
			atolQ16 := FastDotBound(n, float64(sc)*2047*4*float64(maxInt(n, 1)))
			for l := range out16 {
				want := 0.0
				for i := range a16 {
					want += (float64(sc) * float64(a16[i])) * float64(bp[i*lanes+l])
				}
				if !FastClose(out16[l], float32(want), FastULPBound(n), atolQ16) {
					t.Errorf("q16 n=%d lanes=%d out[%d] = %g, exact %g", n, lanes, l, out16[l], want)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestMatVecAddFastMatchesExact(t *testing.T) {
	rng := NewRNG(0x9E3C)
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {17, 33}, {64, 100}} {
		m, n := dims[0], dims[1]
		w := NewMatrix(m, n)
		for i := range w.Data {
			w.Data[i] = float32(rng.NormFloat64())
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		yExact := make([]float32, m)
		yFast := make([]float32, m)
		MatVecAdd(yExact, w, x)
		MatVecAddFast(yFast, w, x)
		atol := FastDotBound(n, 4*float64(n))
		for i := range yFast {
			if !FastClose(yFast[i], yExact[i], FastULPBound(n), atol) {
				t.Errorf("%dx%d y[%d] = %g, exact %g", m, n, i, yFast[i], yExact[i])
			}
		}

		for _, bw := range []int{2, 8, 13} {
			xp := make([]float32, n*bw)
			for i := range xp {
				xp[i] = float32(rng.NormFloat64())
			}
			ypExact := make([]float32, m*bw)
			ypFast := make([]float32, m*bw)
			MatVecAddBatch(ypExact, w, xp, bw)
			MatVecAddBatchFast(ypFast, w, xp, bw)
			for i := range ypFast {
				if !FastClose(ypFast[i], ypExact[i], FastULPBound(n), atol) {
					t.Errorf("%dx%d bw=%d yp[%d] = %g, exact %g", m, n, bw, i, ypFast[i], ypExact[i])
				}
			}
		}
	}
}

// FuzzFastEquiv fuzzes the fast tier against the exact oracle: arbitrary
// byte strings become f32/int8 vectors and the fast dot, quantized dot, and
// segment driver must all land inside the hybrid bound. Wired into
// `make fuzz-smoke`.
func FuzzFastEquiv(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0xFF, 0x80, 0x01, 0x00, 0x7F, 0xAA}, uint8(1))
	f.Add(make([]byte, 256), uint8(16))
	f.Fuzz(func(t *testing.T, raw []byte, ncRaw uint8) {
		if len(raw) < 2 {
			return
		}
		n := len(raw) / 2
		a := make([]float32, n)
		b := make([]float32, n)
		q8 := make([]int8, n)
		sumAbs, sumAbsQ := 0.0, 0.0
		const sc = float32(0.031)
		for i := 0; i < n; i++ {
			q8[i] = int8(raw[2*i])
			a[i] = float32(q8[i]) / 16
			b[i] = float32(int8(raw[2*i+1])) / 32
			sumAbs += math.Abs(float64(a[i]) * float64(b[i]))
			sumAbsQ += math.Abs(float64(sc) * float64(q8[i]) * float64(b[i]))
		}
		want := float32(DotF64(a, b))
		got := DotFastF32(a, b)
		if !FastClose(got, want, FastULPBound(n), FastDotBound(n, sumAbs)) {
			t.Errorf("n=%d: DotFastF32 = %g, exact %g, ulp=%d", n, got, want, ULPDiff32(got, want))
		}
		wantQ := float32(DotQF32(q8, sc, b))
		gotQ := DotQ8FastF32(q8, sc, b)
		if !FastClose(gotQ, wantQ, FastULPBound(n), FastDotBound(n, sumAbsQ)) {
			t.Errorf("n=%d: DotQ8FastF32 = %g, exact %g", n, gotQ, wantQ)
		}
		// Segment driver: split the vector into rows of width nc.
		nc := int(ncRaw)%maxInt(n, 1) + 1
		nr := n / nc
		if nr > 0 {
			rows := make([]int32, nr)
			scales := make([]float32, nr)
			for k := range rows {
				rows[k] = int32(k)
				scales[k] = sc
			}
			g := b[:nc]
			yExact := make([]float32, nr)
			yFast := make([]float32, nr)
			for k := 0; k < nr; k++ {
				yExact[k] += float32(DotQF32(q8[k*nc:(k+1)*nc], scales[k], g))
			}
			consumed := DotSegQ8FastF32(q8[:nr*nc], rows, scales, g, yFast)
			for k := consumed; k < nr; k++ {
				yFast[k] += DotQ8FastF32(q8[k*nc:(k+1)*nc], scales[k], g)
			}
			atol := FastDotBound(nc, float64(sc)*127*8*float64(nc))
			for k := range yFast {
				if !FastClose(yFast[k], yExact[k], FastULPBound(nc), atol) {
					t.Errorf("seg nr=%d nc=%d y[%d] = %g, exact %g", nr, nc, k, yFast[k], yExact[k])
				}
			}
		}
	})
}
