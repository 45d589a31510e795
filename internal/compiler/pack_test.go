package compiler

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// The packed equivalence table. One grid — {dense, CSR, BSPC ± load
// elimination} × panel width — with the value storage as a column, and
// three contracts:
//
//	serial           ≡ tensor.MatVecAdd, bit for bit
//	panel            lane l ≡ the serial run on lane l's vector, bit for bit
//	quantized        ≡ the float program of its dequantized values, bit for bit
//
// A quantized case's matrix is the dequantized one (quant.QMatrix.Dequantize
// of the projected matrix), so the contracts apply to every storage
// unchanged. The modelled thread count is no column: it prices a program and
// never shapes one (TestLowerMatrixThreadsOnlyInPlan). Every execution of
// every test below borrows tableScratch, so one PackedScratch is reused
// across storages and widths throughout.

// storage is the value-storage column.
type storage struct {
	name string
	bits int
}

var (
	f32Storage    = []storage{{"f32", 0}}
	quantStorages = []storage{{"q8", 8}, {"q12", 12}, {"q16", 16}}
	allStorages   = append(append([]storage(nil), f32Storage...), quantStorages...)

	tableWidths  = []int{1, 3, 8, 16}
	tableScratch = &PackedScratch{}
)

// packedCase is one cell of the grid.
type packedCase struct {
	label string
	w     *tensor.Matrix // the matrix the programs compute (dequantized for a quantized storage)
	pp    *PackedProgram // the storage under test
	ref   *PackedProgram // the float program of w's values (pp itself for f32)
	// relower lowers a matrix the way pp was: same format, options and
	// storage.
	relower func(w *tensor.Matrix) (*PackedProgram, error)
}

// lowerings are the grid's format rows; load elimination only changes BSPC.
var lowerings = []struct {
	format Format
	elim   bool
}{{FormatDense, true}, {FormatCSR, true}, {FormatBSPC, true}, {FormatBSPC, false}}

// tableMatrix is one projected matrix of the grid.
type tableMatrix struct {
	name   string
	scheme prune.BSP
	w      *tensor.Matrix
}

// seamRows are the row counts of the grid's single-row-group matrices: their
// dense lowering is one stream segment and their BSPC lowering one gather
// segment of exactly that many rows, which puts the serial exact kernel's
// eight-row group / pair / single-row seam — no group, one group, one group
// plus a remainder, twelve groups — on both segment kinds
// (TestPackedTableHitsGroupSeam holds the table to it).
var seamRows = []int{7, 8, 9, 96}

// tableMatrices are the grid's matrix rows: two ragged multi-group shapes and
// the seam shapes, whose 22 columns keep 11 (two four-column steps and a
// three-column tail on the gather side, five steps and two on the stream).
func tableMatrices() []tableMatrix {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	var ms []tableMatrix
	for seed := uint64(1); seed <= 2; seed++ {
		ms = append(ms, tableMatrix{fmt.Sprintf("seed=%d", seed), scheme, bspMat(seed, 32+int(seed)*9, 40, scheme)})
	}
	seam := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 1, NumColBlocks: 1}
	for _, nr := range seamRows {
		ms = append(ms, tableMatrix{fmt.Sprintf("seam=%d", nr), seam, bspMat(uint64(nr), nr, 22, seam)})
	}
	return ms
}

// dequantized is w round-tripped through quant at the given width, as a
// quantized deployment's Compile rounds its model's weights.
func dequantized(t testing.TB, w *tensor.Matrix, st storage) *tensor.Matrix {
	t.Helper()
	if st.bits == 0 {
		return w
	}
	qm, err := quant.Quantize(w, st.bits)
	if err != nil {
		t.Fatal(err)
	}
	return qm.Dequantize()
}

// packQuant is a copy of the float program p stored at the given width:
// LowerMatrix's quantization.
func packQuant(p *PackedProgram, bits int) *PackedProgram {
	q := *p
	q.Vals = append([]float32(nil), p.Vals...)
	q.quantize(bits)
	return &q
}

// withValues returns p with every weight replaced by its entry in wd — the
// program the lowering would have produced from wd, without re-deriving the
// sparsity structure from wd's (possibly fewer) nonzeros.
func withValues(p *PackedProgram, wd *tensor.Matrix) *PackedProgram {
	q := *p
	q.Vals = make([]float32, len(p.Vals))
	p.forEachRowVals(func(sg *PackedSeg, row int32, off int, vals []float32) {
		for j := range vals {
			c := int(sg.Arg) + j
			if sg.Kind == segGather {
				c = int(p.ColIdx[int(sg.Arg)+j])
			}
			q.Vals[off+j] = wd.At(int(row), c)
		}
	})
	return &q
}

// forEachPackedCase walks the grid for the given storages.
func forEachPackedCase(t *testing.T, storages []storage, fn func(c packedCase)) {
	t.Helper()
	for _, m := range tableMatrices() {
		for _, lo := range lowerings {
			src := MatrixSource{Name: "m", W: m.w}
			if lo.format == FormatBSPC {
				s := m.scheme
				src.Scheme = &s
			}
			opt := DefaultOptions(lo.format, 32)
			opt.EliminateRedundantLoads = lo.elim
			prog, _ := lower(t, src, opt, 8)
			for _, st := range storages {
				wd := dequantized(t, m.w, st)
				c := packedCase{w: wd, label: fmt.Sprintf(
					"%s fmt=%s elim=%v %s", m.name, lo.format, lo.elim, st.name)}
				c.relower = func(w *tensor.Matrix) (*PackedProgram, error) {
					s := src
					s.W = w
					p, _, err := LowerMatrix(s, opt, 8)
					if err != nil || st.bits == 0 {
						return p, err
					}
					return packQuant(p, st.bits), nil
				}
				c.pp, c.ref = prog, prog
				if st.bits != 0 {
					c.pp, c.ref = packQuant(prog, st.bits), withValues(prog, wd)
				}
				fn(c)
			}
		}
	}
}

// checkExactSerial: the serial run and the dense-order contract — run into
// a cleared y and accumulated onto a bias, the program is tensor.MatVecAdd
// on its matrix, bit for bit.
func checkExactSerial(t *testing.T, storages []storage) {
	forEachPackedCase(t, storages, func(c packedCase) {
		x := randVec(uint64(len(c.label)), c.w.Cols)
		for _, bias := range [][]float32{make([]float32, c.w.Rows), randVec(uint64(len(c.label))+13, c.w.Rows)} {
			got, want := append([]float32(nil), bias...), append([]float32(nil), bias...)
			if err := c.pp.RunAdd(got, x, tableScratch); err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			tensor.MatVecAdd(want, c.w, x)
			for r := range got {
				if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
					t.Fatalf("%s: row %d: RunAdd %v vs tensor.MatVecAdd %v", c.label, r, got[r], want[r])
				}
			}
		}
		got := make([]float32, c.w.Rows)
		for i := range got {
			got[i] = 7 // Run clears y first
		}
		if err := c.pp.Run(got, x, tableScratch); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want := make([]float32, c.w.Rows)
		tensor.MatVecAdd(want, c.w, x)
		for r := range got {
			if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
				t.Fatalf("%s: row %d: Run %v vs tensor.MatVecAdd %v", c.label, r, got[r], want[r])
			}
		}
	})
}

// sameAsRef asserts a quantized program is the float program of its
// dequantized values: the same values bit for bit and the same output at the
// given width.
func sameAsRef(t *testing.T, label string, pp, ref *PackedProgram, seed uint64, bw int) {
	t.Helper()
	if len(pp.Vals) != len(ref.Vals) {
		t.Fatalf("%s: %d values, the dequantized program has %d", label, len(pp.Vals), len(ref.Vals))
	}
	for i, v := range pp.Vals {
		if math.Float32bits(v) != math.Float32bits(ref.Vals[i]) {
			t.Fatalf("%s: value %d is %v, dequantized %v", label, i, v, ref.Vals[i])
		}
	}
	x := randVec(seed, pp.Cols*bw)
	got, want := make([]float32, pp.Rows*bw), make([]float32, pp.Rows*bw)
	if err := pp.RunBatch(got, x, bw, tableScratch); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := ref.RunBatch(want, x, bw, tableScratch); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s bw=%d: output %d is %v, the dequantized program gives %v", label, bw, i, got[i], want[i])
		}
	}
}

// checkStorage: at every width, a quantized program is the float program of
// its dequantized values.
func checkStorage(t *testing.T) {
	forEachPackedCase(t, quantStorages, func(c packedCase) {
		for _, bw := range tableWidths {
			sameAsRef(t, c.label, c.pp, c.ref, uint64(bw)+5, bw)
		}
	})
}

func TestPackedBitIdentical(t *testing.T) { checkExactSerial(t, f32Storage) }

// TestPackQuantBitIdentical: quantized programs hold the exact and
// dense-order contracts over their dequantized matrix, and are the float
// programs of their dequantized values at every width.
func TestPackQuantBitIdentical(t *testing.T) {
	checkExactSerial(t, quantStorages)
	checkStorage(t)
}

// TestPackedDenseInverse: Dense is the inverse of lowering across formats
// and storages. It returns the matrix a program computes, and lowering
// that matrix again reproduces the program's sections byte for byte. The second half holds for a program lowered from
// the weights it holds. An engine's programs always are (Compile rounds
// before it lowers); a quantized c.pp was lowered from the unrounded
// matrix, so the check re-lowers c.w, the rounded one, first.
func TestPackedDenseInverse(t *testing.T) {
	forEachPackedCase(t, allStorages, func(c packedCase) {
		for _, p := range []*PackedProgram{c.pp, c.ref} {
			if !denseEqual(p.Dense(), c.w) {
				t.Fatalf("%s: Dense is not the matrix the program computes", c.label)
			}
		}
		p, err := c.pp, error(nil)
		if c.pp.Bits != 0 {
			if p, err = c.relower(c.w); err != nil {
				t.Fatal(err)
			}
		}
		again, err := c.relower(p.Dense())
		if err != nil {
			t.Fatal(err)
		}
		sameSections(t, c.label, again.Sections(), p.Sections())
	})
}

// denseEqual reports whether two matrices have the same shape and equal
// entries under ==.
func denseEqual(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// sameSections fails unless two programs serialize to the same bytes.
func sameSections(t testing.TB, label string, got, want *PackedSections) {
	t.Helper()
	sameBits := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !reflect.DeepEqual(got, want) || !sameBits(got.Vals, want.Vals) || !sameBits(got.Scales, want.Scales) {
		t.Fatalf("%s: re-lowering Dense changed the program's sections", label)
	}
}

// TestPackedTableHitsGroupSeam: the grid really contains a gather and a
// stream segment of every seam row count, so checkExactSerial's RunAdd ≡
// MatVecAdd comparison crosses the eight-row driver's group/remainder seam on
// both segment kinds.
func TestPackedTableHitsGroupSeam(t *testing.T) {
	seen := map[[2]int]bool{}
	forEachPackedCase(t, f32Storage, func(c packedCase) {
		for _, sg := range c.pp.Segs {
			seen[[2]int{int(sg.Kind), int(sg.NR)}] = true
		}
	})
	for _, nr := range seamRows {
		for _, kind := range []uint8{segGather, segStream} {
			if !seen[[2]int{int(kind), nr}] {
				t.Errorf("no segment of kind %d with %d rows in the table", kind, nr)
			}
		}
	}
}

// packPanel lays out per-stream vectors column-major: element i of stream l
// at panel[i*bw+l].
func packPanel(streams [][]float32) []float32 {
	bw := len(streams)
	panel := make([]float32, len(streams[0])*bw)
	for l, v := range streams {
		for i, x := range v {
			panel[i*bw+l] = x
		}
	}
	return panel
}

// checkLanes runs pp over a bw-wide panel of random streams and hands every
// lane's output column, with the lane's input vector, to check.
func checkLanes(t *testing.T, label string, pp *PackedProgram, seed uint64, bw int, check func(lane int, x, got []float32)) {
	t.Helper()
	streams := make([][]float32, bw)
	for l := range streams {
		streams[l] = randVec(seed*31+uint64(l)+7, pp.Cols)
	}
	yp := make([]float32, pp.Rows*bw)
	if err := pp.RunBatch(yp, packPanel(streams), bw, tableScratch); err != nil {
		t.Fatalf("%s bw=%d: %v", label, bw, err)
	}
	got := make([]float32, pp.Rows)
	for l, x := range streams {
		for r := range got {
			got[r] = yp[r*bw+l]
		}
		check(l, x, got)
	}
}

// checkLanesMatchSerial: lane l of the panel is byte-for-byte
// the serial run on lane l's vector.
func checkLanesMatchSerial(t *testing.T, label string, pp *PackedProgram, seed uint64, bw int) {
	t.Helper()
	want := make([]float32, pp.Rows)
	checkLanes(t, label, pp, seed, bw, func(l int, x, got []float32) {
		if err := pp.Run(want, x, tableScratch); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("%s bw=%d: lane %d row %d: batched %v vs serial %v", label, bw, l, r, got[r], want[r])
			}
		}
	})
}

func checkExactLanes(t *testing.T, storages []storage) {
	forEachPackedCase(t, storages, func(c packedCase) {
		for _, bw := range tableWidths {
			checkLanesMatchSerial(t, c.label, c.pp, uint64(bw), bw)
		}
	})
}

func TestBatchedBitIdentical(t *testing.T)            { checkExactLanes(t, f32Storage) }
func TestPackQuantBatchLanesMatchSerial(t *testing.T) { checkExactLanes(t, quantStorages) }

// checkZeroAlloc is the allocation-regression gate: steady-state execution
// on the shared scratch must not touch the heap, whatever ran on it before.
func checkZeroAlloc(t *testing.T, storages []storage, widths []int) {
	forEachPackedCase(t, storages, func(c packedCase) {
		for _, bw := range widths {
			x := randVec(9, c.w.Cols*bw)
			y := make([]float32, c.w.Rows*bw)
			run := func() {
				if err := c.pp.RunBatch(y, x, bw, tableScratch); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("%s bw=%d: %v allocs per execution, want 0", c.label, bw, allocs)
			}
		}
	})
}

func TestPackedRunZeroAlloc(t *testing.T) { checkZeroAlloc(t, f32Storage, tableWidths[:1]) }
func TestRunBatchZeroAlloc(t *testing.T)  { checkZeroAlloc(t, f32Storage, tableWidths[1:]) }
func TestPackQuantZeroAlloc(t *testing.T) { checkZeroAlloc(t, quantStorages, tableWidths) }

// TestPackedRejectsMalformed: hand-built sections with the defects a
// lowering never emits — an out-of-range gather column, a dot wider than its
// payload, a stream window past the input, an out-of-range row — are refused
// when the program is built, so execution needs no per-segment checks.
func TestPackedRejectsMalformed(t *testing.T) {
	// base is one gather segment of two columns feeding row 1.
	base := func() *PackedSections {
		return &PackedSections{
			Name: "m", Rows: 4, Cols: 4, ValueBits: 32,
			Vals: []float32{1, 2}, ColIdx: []int32{0, 1}, RowIdx: []int32{1},
			SegWords:      []int32{int32(segGather), 2, 0, 0, 0, 1},
			LaneSegCounts: []int32{1}, LaneRowCounts: []int32{1},
		}
	}
	if _, err := NewPackedFromSections(base()); err != nil {
		t.Fatalf("the well-formed base is refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*PackedSections)
	}{
		{"out-of-range gather column", func(s *PackedSections) { s.ColIdx[1] = 9 }},
		{"dot wider than its payload", func(s *PackedSections) { s.Vals = s.Vals[:1] }},
		{"out-of-range stream window", func(s *PackedSections) {
			s.SegWords = []int32{int32(segStream), 3, 2, 0, 0, 1}
			s.Vals = []float32{1, 2, 3}
		}},
		{"out-of-range row", func(s *PackedSections) { s.RowIdx[0] = 5 }},
	} {
		s := base()
		tc.mutate(s)
		if _, err := NewPackedFromSections(s); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// TestPackedShapeValidation: Run and RunAdd refuse vectors of the wrong
// length.
func TestPackedShapeValidation(t *testing.T) {
	pp, _ := lower(t, MatrixSource{Name: "d", W: tensor.NewMatrix(4, 4)}, DefaultOptions(FormatDense, 32), 2)
	if err := pp.Run(make([]float32, 3), make([]float32, 4), nil); err == nil {
		t.Fatal("short y accepted")
	}
	if err := pp.RunAdd(make([]float32, 4), make([]float32, 5), nil); err == nil {
		t.Fatal("long x accepted")
	}
}

// TestRunBatchShapeValidation pins the panel entries' error paths.
func TestRunBatchShapeValidation(t *testing.T) {
	pp, _ := lower(t, MatrixSource{Name: "d", W: tensor.NewMatrix(4, 4)}, DefaultOptions(FormatDense, 32), 2)
	if err := pp.RunBatch(make([]float32, 8), make([]float32, 8), 0, nil); err == nil {
		t.Fatal("zero batch width accepted")
	}
	if err := pp.RunBatch(make([]float32, 7), make([]float32, 8), 2, nil); err == nil {
		t.Fatal("short y panel accepted")
	}
	if err := pp.RunBatchAdd(make([]float32, 8), make([]float32, 9), 2, nil); err == nil {
		t.Fatal("long x panel accepted")
	}
}

// TestPackedSharedProgram hammers one PackedProgram from many goroutines with
// per-goroutine scratches — the read-only-program / private-scratch ownership
// rule the race target verifies.
func TestPackedSharedProgram(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(13, 48, 40, scheme)
	pp, _ := lower(t, MatrixSource{Name: "s", W: w, Scheme: &scheme}, DefaultOptions(FormatBSPC, 32), 6)
	x := randVec(14, 40)
	want := make([]float32, 48)
	tensor.MatVecAdd(want, w, x)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scratch := pp.NewScratch()
			y := make([]float32, 48*(1+i%2*7))
			var err error
			if i%2 == 0 {
				err = pp.Run(y, x, scratch)
			} else {
				xs := make([][]float32, 8)
				for l := range xs {
					xs[l] = x
				}
				err = pp.RunBatch(y, packPanel(xs), 8, scratch)
			}
			if err != nil {
				t.Error(err)
				return
			}
			lanes := len(y) / 48
			for r := range want {
				if y[r*lanes] != want[r] {
					t.Errorf("goroutine %d row %d differs", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPackedSegmentMerging pins the one-list layout: a dense lowering is one
// stream segment, and a BSPC lowering with load elimination shares one
// gather across each row group's rows where without it every row
// re-gathers.
func TestPackedSegmentMerging(t *testing.T) {
	w := tensor.NewMatrix(16, 8)
	w.RandNormal(tensor.NewRNG(21), 1)
	pp, _ := lower(t, MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 32), 4)
	if len(pp.Segs) != 1 || pp.Segs[0].NR != 16 {
		t.Fatalf("dense packing has segments %+v, want one of 16 rows", pp.Segs)
	}

	scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 2}
	wb := bspMat(22, 32, 32, scheme)
	src := MatrixSource{Name: "b", W: wb, Scheme: &scheme}
	ppOn, on := lower(t, src, DefaultOptions(FormatBSPC, 32), 2)
	optOff := DefaultOptions(FormatBSPC, 32)
	optOff.EliminateRedundantLoads = false
	ppOff, off := lower(t, src, optOff, 2)
	if len(ppOn.Segs) != scheme.NumRowGroups || len(ppOff.Segs) != len(ppOff.RowIdx) {
		t.Fatalf("load elimination on: %d segments, want one per row group (%d); off: %d, want one per row (%d)",
			len(ppOn.Segs), scheme.NumRowGroups, len(ppOff.Segs), len(ppOff.RowIdx))
	}
	if on.GatherLoads >= off.GatherLoads {
		t.Fatalf("load elimination should shrink gathers: on=%d off=%d", on.GatherLoads, off.GatherLoads)
	}
}
