package tensor

import (
	"testing"

	"rtmobile/internal/parallel"
)

// buildPanel packs lanes (each of length n) column-major: element i of lane
// l at panel[i*bw+l].
func buildPanel(lanes [][]float32) []float32 {
	bw := len(lanes)
	n := len(lanes[0])
	panel := make([]float32, n*bw)
	for l, v := range lanes {
		for i, x := range v {
			panel[i*bw+l] = x
		}
	}
	return panel
}

func randLanes(seed uint64, bw, n int) [][]float32 {
	rng := NewRNG(seed)
	lanes := make([][]float32, bw)
	for l := range lanes {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		lanes[l] = v
	}
	return lanes
}

// TestDotBatchBitIdentical: at every panel width 1…16 and every length
// 0…67, each lane of the portable chunk kernel and of the strided entry
// point (the AVX2 kernel on full eight-lane chunks when BatchSIMD is active,
// the portable kernel otherwise) must carry the rolled loop's bits.
func TestDotBatchBitIdentical(t *testing.T) {
	t.Logf("BatchSIMD=%v", BatchSIMD())
	rng := NewRNG(11)
	for bw := 1; bw <= 16; bw++ {
		for n := 0; n <= 67; n++ {
			a := make([]float32, n)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			lanes := randLanes(uint64(100+bw*50+n), bw, n)
			panel := buildPanel(lanes)
			out := make([]float64, bw)
			for name, k := range map[string]func(a, bp []float32, stride int, out []float64){
				"portable": dotBatchChunkGeneric,
				"strided":  DotBatchF64Strided,
			} {
				// Poison out to prove the kernels overwrite it.
				for l := range out {
					out[l] = 1e300
				}
				k(a, panel, bw, out)
				for l := 0; l < bw; l++ {
					if want := rolledDot(a, lanes[l]); out[l] != want {
						t.Fatalf("%s bw=%d n=%d lane %d: %v != rolled %v", name, bw, n, l, out[l], want)
					}
				}
			}
		}
	}
}

// TestDotBatchStridedBitIdentical: the strided dispatcher must reproduce
// DotF64's bytes per lane on both its paths — the AVX2 chunk kernel (when
// BatchSIMD is active) and the portable generic chunk — including lane
// counts that exercise full eight-lane chunks, remainders, and lane offsets
// into a wider panel (stride > len(out)).
func TestDotBatchStridedBitIdentical(t *testing.T) {
	t.Logf("BatchSIMD=%v", BatchSIMD())
	rng := NewRNG(23)
	for _, bw := range []int{1, 2, 7, 8, 9, 16, 19, 32} {
		for _, n := range []int{0, 1, 3, 8, 17, 33} {
			a := make([]float32, n)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			lanes := randLanes(uint64(300+bw*50+n), bw, n)
			panel := buildPanel(lanes)
			out := make([]float64, bw)
			for l := range out {
				out[l] = 1e300 // poison: kernels must overwrite
			}
			DotBatchF64Strided(a, panel, bw, out)
			for l := 0; l < bw; l++ {
				if want := DotF64(a, lanes[l]); out[l] != want {
					t.Fatalf("strided bw=%d n=%d lane %d: %v != DotF64 %v", bw, n, l, out[l], want)
				}
			}
			// Offset sub-range: lanes [3, bw) of the same panel, proving the
			// stride/lane-count decoupling.
			if bw > 3 && n > 0 {
				sub := make([]float64, bw-3)
				DotBatchF64Strided(a, panel[3:], bw, sub)
				for l := range sub {
					if want := DotF64(a, lanes[3+l]); sub[l] != want {
						t.Fatalf("strided offset bw=%d n=%d lane %d: %v != %v", bw, n, l, sub[l], want)
					}
				}
			}
			// The generic chunk path must agree byte-for-byte with whatever
			// the dispatcher picked (covers SIMD-vs-portable equivalence on
			// AVX2 machines; a no-op elsewhere).
			gen := make([]float64, bw)
			dotBatchChunkGeneric(a, panel, bw, gen)
			for l := range gen {
				if gen[l] != out[l] {
					t.Fatalf("generic vs dispatch bw=%d n=%d lane %d: %v != %v", bw, n, l, gen[l], out[l])
				}
			}
			// Row-pair kernel: both outputs must match the single-row
			// dispatcher bytes for a second independent row.
			a2 := make([]float32, n)
			for i := range a2 {
				a2[i] = float32(rng.NormFloat64())
			}
			p0, p1 := make([]float64, bw), make([]float64, bw)
			DotBatchPairF64Strided(a, a2, panel, bw, p0, p1)
			want1 := make([]float64, bw)
			DotBatchF64Strided(a2, panel, bw, want1)
			for l := 0; l < bw; l++ {
				if p0[l] != out[l] || p1[l] != want1[l] {
					t.Fatalf("pair bw=%d n=%d lane %d: (%v,%v) != (%v,%v)",
						bw, n, l, p0[l], p1[l], out[l], want1[l])
				}
			}
		}
	}
}

// TestMatVecAddBatchBitIdentical: lane l of the panel product must be
// byte-for-byte MatVecAdd on lane l's vector, including initial-y
// accumulation, lane chunking past batchLaneChunk, and the parallel path.
func TestMatVecAddBatchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, bw int
		parallelPath   bool
	}{
		{5, 7, 1, false},
		{9, 6, 3, false},
		{12, 10, 8, false},
		{4, 3, batchLaneChunk + 3, false}, // lane chunking
		{64, 64, 17, true},                // rows*cols*bw past ParallelCutoff
	} {
		if tc.parallelPath {
			pool := parallel.NewPool(4)
			SetPool(pool)
			t.Cleanup(func() { SetPool(nil); pool.Close() })
		}
		w := NewMatrix(tc.rows, tc.cols)
		w.RandNormal(NewRNG(uint64(tc.rows*tc.cols)), 1)
		xs := randLanes(uint64(7+tc.bw), tc.bw, tc.cols)
		ys := randLanes(uint64(9+tc.bw), tc.bw, tc.rows)
		xp := buildPanel(xs)
		yp := buildPanel(ys)
		MatVecAddBatch(yp, w, xp, tc.bw)
		for l := 0; l < tc.bw; l++ {
			want := CloneVec(ys[l])
			MatVecAdd(want, w, xs[l])
			for i := range want {
				if yp[i*tc.bw+l] != want[i] {
					t.Fatalf("%dx%d bw=%d lane %d row %d: %v != %v",
						tc.rows, tc.cols, tc.bw, l, i, yp[i*tc.bw+l], want[i])
				}
			}
		}
	}
}

// TestMatVecAddBatchShapeChecks pins the panics.
func TestMatVecAddBatchShapeChecks(t *testing.T) {
	w := NewMatrix(3, 4)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad width", func() { MatVecAddBatch(make([]float32, 6), w, make([]float32, 8), 0) })
	expectPanic("short x", func() { MatVecAddBatch(make([]float32, 6), w, make([]float32, 7), 2) })
	expectPanic("short y", func() { MatVecAddBatch(make([]float32, 5), w, make([]float32, 8), 2) })
}
