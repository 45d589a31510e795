package tensor

import (
	"math"
	"testing"
)

// segF64Ref is the specification of the exact float32 segment kernels: every
// row, in row-list order, adds its DotF64 narrowed to float32 into y.
func segF64Ref(vals []float32, rows []int32, g, y []float32) {
	nc := len(g)
	for k, r := range rows {
		y[r] += float32(DotF64(vals[k*nc:(k+1)*nc], g))
	}
}

// segF64 runs a segment the way the packed executor's exact float32 kernel
// does (internal/compiler/packkernels.go): the eight-row driver first, then
// pairs, then a single row.
func segF64(vals []float32, rows []int32, g, y []float32) (consumed int) {
	nc := len(g)
	consumed = DotSegF64(vals, rows, g, y)
	ri := consumed
	for ; ri+2 <= len(rows); ri += 2 {
		s0, s1 := DotPairF64(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
		y[rows[ri]] += float32(s0)
		y[rows[ri+1]] += float32(s1)
	}
	if ri < len(rows) {
		y[rows[ri]] += float32(DotF64(vals[ri*nc:ri*nc+nc], g))
	}
	return consumed
}

// checkSegF64 runs one segment through segF64 and the specification and
// compares every byte of y, touched or not.
func checkSegF64(t *testing.T, vals []float32, rows []int32, g, y []float32) {
	t.Helper()
	nr, nc := len(rows), len(g)
	want := append([]float32(nil), y...)
	segF64Ref(vals, rows, g, want)
	consumed := segF64(vals, rows, g, y)
	if consumed%8 != 0 || consumed > nr || (nc > 0 && BatchSIMD() && consumed != nr&^7) {
		t.Fatalf("nr=%d nc=%d: driver consumed %d rows (BatchSIMD=%v)", nr, nc, consumed, BatchSIMD())
	}
	for i := range y {
		if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
			t.Errorf("nr=%d nc=%d y[%d] = %v (%#08x), want %v (%#08x)",
				nr, nc, i, y[i], math.Float32bits(y[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// segF64Edge are the inputs where a changed operation order, a fused
// multiply-add or a flushed denormal would show: signed zeros, the smallest
// and largest denormals, and ±MaxFloat32, whose dots overflow float32 to ±Inf
// on the final narrowing (never in the float64 chain).
var segF64Edge = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007FFFFF), -math.Float32frombits(0x007FFFFF),
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.1, 3e-20, -7e19,
}

// TestDotSegF64BitIdentical: on both builds, a segment run through the
// eight-row driver plus the caller's pair/single remainder is byte-identical
// to the rolled per-row specification at every row count around the group
// seam and every width around the four-column main loop and its tail, with
// scattered output rows and edge-value inputs. Under -tags=purego the driver
// consumes nothing and the same bytes come from the portable kernels.
func TestDotSegF64BitIdentical(t *testing.T) {
	t.Logf("BatchSIMD=%v", BatchSIMD())
	rng := NewRNG(0x5E6F64)
	for _, nr := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 96} {
		for nc := 0; nc <= 67; nc++ {
			for _, edge := range []bool{false, true} {
				draw := func() float32 {
					if edge && rng.Intn(3) > 0 {
						return segF64Edge[rng.Intn(len(segF64Edge))]
					}
					return float32(rng.NormFloat64())
				}
				vals := make([]float32, nr*nc)
				for i := range vals {
					vals[i] = draw()
				}
				g := make([]float32, nc)
				for i := range g {
					g[i] = draw()
				}
				// Shuffled, non-contiguous output rows into a pre-filled y.
				y := make([]float32, 2*nr+3)
				for i := range y {
					y[i] = float32(rng.NormFloat64())
				}
				rows := make([]int32, nr)
				for k, p := range rng.Perm(nr) {
					rows[k] = int32(2*p + 1)
				}
				checkSegF64(t, vals, rows, g, y)
			}
		}
	}
}

// FuzzDotSegF64 fuzzes the same oracle: two shape bytes pick the row count
// and width, the value bytes become raw float32 bit patterns (NaN and Inf
// encodings folded to large finite values — which NaN payload survives a
// NaN·NaN is the one thing the contract does not pin), and output rows may
// repeat. Wired into `make fuzz-smoke`.
func FuzzDotSegF64(f *testing.F) {
	for _, nr := range []uint8{7, 8, 9, 17, 96} {
		for _, nc := range []uint8{0, 1, 3, 48, 67} {
			f.Add(nr, nc, []byte{0x00, 0x00, 0x80, 0x3F, 0xFF, 0xFF, 0x7F, 0x7F, 0x01, 0x00, 0x00, 0x80, 0xCD, 0xCC, 0xCC, 0x3D})
		}
	}
	f.Fuzz(func(t *testing.T, nrRaw, ncRaw uint8, raw []byte) {
		nr, nc := int(nrRaw)%100, int(ncRaw)%70
		if len(raw) < 4 {
			raw = append(raw, 1, 2, 3, 4)
		}
		at := 0
		draw := func() float32 {
			var u uint32
			for b := 0; b < 4; b++ {
				u = u<<8 | uint32(raw[at%len(raw)])
				at++
			}
			u += uint32(at) * 0x9E3779B1 >> 9 // vary the low mantissa as raw repeats
			if u&0x7F800000 == 0x7F800000 {
				u &^= 0x00800000
			}
			return math.Float32frombits(u)
		}
		vals := make([]float32, nr*nc)
		for i := range vals {
			vals[i] = draw()
		}
		g := make([]float32, nc)
		for i := range g {
			g[i] = draw()
		}
		y := make([]float32, nr/2+3)
		for i := range y {
			y[i] = draw()
		}
		rows := make([]int32, nr)
		for k := range rows {
			rows[k] = int32((k*7 + int(ncRaw)) % len(y))
		}
		checkSegF64(t, vals, rows, g, y)
	})
}
