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

// segFastCase builds an nr-row contiguous panel with shuffled output rows.
func segFastCase(nr, nc int, seed uint64) (vals []float32, rows []int32, g, y []float32) {
	rng := NewRNG(seed)
	vals = make([]float32, nr*nc)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	nrows := nr + 3 // y larger than the row list; rows shuffled, unique
	rows = make([]int32, nr)
	perm := rng.Perm(nrows)
	for k := range rows {
		rows[k] = int32(perm[k])
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
			vals, rows, g, y := segFastCase(nr, nc, uint64(nr*1000+nc))
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

func TestDotBatchFastStridedMatchesExact(t *testing.T) {
	rng := NewRNG(0xBA7C4)
	for _, n := range []int{0, 1, 2, 3, 9, 33, 128} {
		for _, lanes := range []int{1, 5, 8, 13, 16, 24} {
			a := make([]float32, n)
			bp := make([]float32, maxInt(n, 1)*lanes)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			for i := range bp {
				bp[i] = float32(rng.NormFloat64())
			}
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
// byte strings become f32 vectors and the fast dot and segment driver must
// land inside the hybrid bound. Wired into `make fuzz-smoke`.
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
		sumAbs := 0.0
		for i := 0; i < n; i++ {
			a[i] = float32(int8(raw[2*i])) / 16
			b[i] = float32(int8(raw[2*i+1])) / 32
			sumAbs += math.Abs(float64(a[i]) * float64(b[i]))
		}
		want := float32(DotF64(a, b))
		got := DotFastF32(a, b)
		if !FastClose(got, want, FastULPBound(n), FastDotBound(n, sumAbs)) {
			t.Errorf("n=%d: DotFastF32 = %g, exact %g, ulp=%d", n, got, want, ULPDiff32(got, want))
		}
		// Segment driver: split the vector into rows of width nc.
		nc := int(ncRaw)%maxInt(n, 1) + 1
		nr := n / nc
		if nr > 0 {
			rows := make([]int32, nr)
			for k := range rows {
				rows[k] = int32(k)
			}
			g := b[:nc]
			yExact := make([]float32, nr)
			yFast := make([]float32, nr)
			for k := 0; k < nr; k++ {
				yExact[k] += float32(DotF64(a[k*nc:(k+1)*nc], g))
			}
			consumed := DotSegFastF32(a[:nr*nc], rows, g, yFast)
			for k := consumed; k < nr; k++ {
				yFast[k] += DotFastF32(a[k*nc:(k+1)*nc], g)
			}
			// |a| ≤ 8 and |g| ≤ 4 per element.
			atol := FastDotBound(nc, 32*float64(nc))
			for k := range yFast {
				if !FastClose(yFast[k], yExact[k], FastULPBound(nc), atol) {
					t.Errorf("seg nr=%d nc=%d y[%d] = %g, exact %g", nr, nc, k, yFast[k], yExact[k])
				}
			}
		}
	})
}
