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
// elimination} × lane count × tier × panel width — with the value storage as
// a column, and one contract per tier:
//
//	exact            ≡ interpreter ≡ tensor.MatVecAdd, bit for bit
//	exact, panel     lane l ≡ the serial run on lane l's vector, bit for bit
//	fast             within tensor.FastDotBound of the same storage's exact run
//	quantized        ≡ Pack of its dequantized values, bit for bit, on every tier
//
// A quantized case's matrix and interpreter program are the dequantized ones
// (quant.QMatrix.Dequantize of the projected matrix), so the exact and fast
// contracts apply to every storage unchanged. Every execution of every test
// below borrows tableScratch, so one PackedScratch is reused across storages,
// tiers and widths throughout.

// storage is the value-storage column.
type storage struct {
	name   string
	bits   int
	scheme quant.Scheme
}

var (
	f32Storage    = []storage{{"f32", 0, quant.PerRow}}
	quantStorages = []storage{
		{"q8", 8, quant.PerRow}, {"q12", 12, quant.PerRow}, {"q16", 16, quant.PerRow},
		{"q8/tensor", 8, quant.PerTensor}, {"q16/tensor", 16, quant.PerTensor},
	}
	allStorages = append(append([]storage(nil), f32Storage...), quantStorages...)

	tableWidths  = []int{1, 3, 8, 16}
	tableScratch = &PackedScratch{}
)

// packedCase is one cell of the grid.
type packedCase struct {
	label string
	w     *tensor.Matrix // the matrix the programs compute (dequantized for a quantized storage)
	prog  *Program       // the interpreter's program of w
	exact *PackedProgram // the storage under test on the exact tier
	pp    *PackedProgram // the storage and tier under test (exact itself on the exact tier)
	ref   *PackedProgram // Pack of w's values on the tier under test (pp itself for f32)
	// relower compiles and packs a matrix the way pp was: same format,
	// options, lane count, tier and storage.
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

// seamRows are the row counts of the grid's single-row-group matrices: on one
// lane their dense lowering is one stream segment and their BSPC lowering one
// gather segment of exactly that many rows, which puts the serial exact
// kernel's eight-row group / pair / single-row seam — no group, one group,
// one group plus a remainder, twelve groups — on both segment kinds
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
	qm, err := quant.Quantize(w, st.bits, st.scheme)
	if err != nil {
		t.Fatal(err)
	}
	return qm.Dequantize()
}

// withValues returns prog with every weight replaced by its entry in wd —
// the program the lowering would have produced from wd, without re-deriving
// the sparsity structure from wd's (possibly fewer) nonzeros.
func withValues(prog *Program, wd *tensor.Matrix) *Program {
	dp := *prog
	dp.Threads = make([][]Instr, len(prog.Threads))
	for t, lane := range prog.Threads {
		var cols []int32
		for _, ins := range lane {
			if ins.Op == OpGather {
				cols = ins.Cols
			} else {
				vals := make([]float32, len(ins.Vals))
				for j := range vals {
					c := ins.ColLo + j
					if ins.Op == OpDotGathered {
						c = int(cols[j])
					}
					vals[j] = wd.At(ins.Row, c)
				}
				ins.Vals = vals
			}
			dp.Threads[t] = append(dp.Threads[t], ins)
		}
	}
	return &dp
}

// forEachPackedCase walks the grid for the given storages on one tier.
func forEachPackedCase(t *testing.T, storages []storage, tier Precision, fn func(c packedCase)) {
	t.Helper()
	for _, m := range tableMatrices() {
		for _, lo := range lowerings {
			src := MatrixSource{Name: "m", W: m.w}
			if lo.format == FormatBSPC {
				s := m.scheme
				src.Scheme = &s
			}
			for _, threads := range []int{1, 3, 8} {
				opt := DefaultOptions(lo.format, 32)
				opt.EliminateRedundantLoads = lo.elim
				prog, err := CompileProgram(src, opt, threads)
				if err != nil {
					t.Fatal(err)
				}
				tprog := prog
				if tier != PrecisionExact {
					opt.Precision = tier
					if tprog, err = CompileProgram(src, opt, threads); err != nil {
						t.Fatal(err)
					}
				}
				for _, st := range storages {
					wd := dequantized(t, m.w, st)
					c := packedCase{w: wd, prog: withValues(prog, wd), label: fmt.Sprintf(
						"%s fmt=%s elim=%v threads=%d %s",
						m.name, lo.format, lo.elim, threads, st.name)}
					c.relower = func(w *tensor.Matrix) (*PackedProgram, error) {
						s := src
						s.W = w
						p, err := CompileProgram(s, opt, threads)
						if err != nil {
							return nil, err
						}
						return PackQuant(p, st.bits, st.scheme)
					}
					if c.exact, err = PackQuant(prog, st.bits, st.scheme); err != nil {
						t.Fatal(err)
					}
					if c.pp = c.exact; tprog != prog {
						if c.pp, err = PackQuant(tprog, st.bits, st.scheme); err != nil {
							t.Fatal(err)
						}
					}
					if c.pp.Precision != tier {
						t.Fatalf("%s: PackQuant dropped the precision tier: %v", c.label, c.pp.Precision)
					}
					if c.ref = c.pp; st.bits != 0 {
						if c.ref, err = Pack(withValues(tprog, wd), 0); err != nil {
							t.Fatal(err)
						}
					}
					fn(c)
				}
			}
		}
	}
}

// equalStats asserts two executions counted exactly the same events.
func equalStats(t *testing.T, want, got ExecStats, label string) {
	t.Helper()
	if want.GatherLoads != got.GatherLoads {
		t.Fatalf("%s: gathers %d vs %d", label, want.GatherLoads, got.GatherLoads)
	}
	if want.StreamedVals != got.StreamedVals {
		t.Fatalf("%s: streamed %d vs %d", label, want.StreamedVals, got.StreamedVals)
	}
	if len(want.ThreadMACs) != len(got.ThreadMACs) {
		t.Fatalf("%s: lane count %d vs %d", label, len(want.ThreadMACs), len(got.ThreadMACs))
	}
	for i := range want.ThreadMACs {
		if want.ThreadMACs[i] != got.ThreadMACs[i] {
			t.Fatalf("%s: lane %d MACs %d vs %d", label, i, want.ThreadMACs[i], got.ThreadMACs[i])
		}
	}
}

// checkExactSerial: the exact tier's serial run against the interpreter,
// the static stats against the interpreter's dynamic count, and the
// dense-order contract: accumulating onto a bias is MatVecAdd.
func checkExactSerial(t *testing.T, storages []storage) {
	forEachPackedCase(t, storages, PrecisionExact, func(c packedCase) {
		x := randVec(uint64(len(c.label)), c.w.Cols)
		want := make([]float32, c.w.Rows)
		wantStats, err := c.prog.Execute(want, x)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float32, c.w.Rows)
		if err := c.pp.Run(got, x, tableScratch); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("%s: row %d: packed %v vs reference %v", c.label, r, got[r], want[r])
			}
		}
		equalStats(t, wantStats, c.pp.Stats(), c.label)
		bias := randVec(uint64(len(c.label))+13, c.w.Rows)
		acc, ref := append([]float32(nil), bias...), append([]float32(nil), bias...)
		if err := c.pp.RunAdd(acc, x, tableScratch); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		tensor.MatVecAdd(ref, c.w, x)
		for r := range acc {
			if acc[r] != ref[r] {
				t.Fatalf("%s: row %d: RunAdd %v vs tensor.MatVecAdd %v", c.label, r, acc[r], ref[r])
			}
		}
	})
}

// sameAsRef asserts a quantized program is Pack of its dequantized values:
// the same values bit for bit and the same output at the given width.
func sameAsRef(t *testing.T, label string, pp, ref *PackedProgram, seed uint64, bw int) {
	t.Helper()
	if len(pp.Vals) != len(ref.Vals) {
		t.Fatalf("%s: %d values, Pack of the dequantized values has %d", label, len(pp.Vals), len(ref.Vals))
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
			t.Fatalf("%s bw=%d: output %d is %v, Pack of the dequantized values gives %v", label, bw, i, got[i], want[i])
		}
	}
}

// checkStorage: on the given tier, at every width, a quantized program is
// Pack of its dequantized values.
func checkStorage(t *testing.T, tier Precision) {
	forEachPackedCase(t, quantStorages, tier, func(c packedCase) {
		for _, bw := range tableWidths {
			sameAsRef(t, c.label, c.pp, c.ref, uint64(bw)+5, bw)
		}
	})
}

func TestPackedBitIdentical(t *testing.T) { checkExactSerial(t, f32Storage) }

// TestPackQuantBitIdentical: quantized programs hold the exact and
// dense-order contracts over their dequantized matrix, and are Pack of
// their dequantized values on both tiers at every width.
func TestPackQuantBitIdentical(t *testing.T) {
	checkExactSerial(t, quantStorages)
	checkStorage(t, PrecisionExact)
	checkStorage(t, PrecisionFast)
}

// TestPackedDenseInverse: Dense is the inverse of lowering across formats,
// lane counts, storages and tiers. It returns the matrix a program computes,
// and lowering and packing that matrix again reproduces the program's
// sections byte for byte. The second half holds for a program lowered from
// the weights it holds. An engine's programs always are (Compile rounds
// before it lowers); a quantized c.pp was lowered from the unrounded
// matrix, so the check re-lowers c.w, the rounded one, first.
func TestPackedDenseInverse(t *testing.T) {
	for _, tier := range []Precision{PrecisionExact, PrecisionFast} {
		forEachPackedCase(t, allStorages, tier, func(c packedCase) {
			for _, p := range []*PackedProgram{c.exact, c.pp, c.ref} {
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
	forEachPackedCase(t, f32Storage, PrecisionExact, func(c packedCase) {
		for li := range c.pp.Lanes {
			for _, sg := range c.pp.Lanes[li].Segs {
				seen[[2]int{int(sg.Kind), int(sg.NR)}] = true
			}
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

// checkLanesMatchSerial: lane l of the exact tier's panel is byte-for-byte
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
	forEachPackedCase(t, storages, PrecisionExact, func(c packedCase) {
		for _, bw := range tableWidths {
			checkLanesMatchSerial(t, c.label, c.pp, uint64(bw), bw)
		}
	})
}

func TestBatchedBitIdentical(t *testing.T)            { checkExactLanes(t, f32Storage) }
func TestPackQuantBatchLanesMatchSerial(t *testing.T) { checkExactLanes(t, quantStorages) }

// checkFastRows asserts a fast-tier output is within the tolerance contract
// of the exact oracle, row by row: the hybrid ULP/absolute bound of the
// row's dot, sized by its term count and product-magnitude sum.
func checkFastRows(t *testing.T, label string, c packedCase, x, got, want []float32) {
	t.Helper()
	for r := range got {
		sumAbs, n := 0.0, 0
		for col, v := range c.w.Row(r) {
			if v != 0 {
				sumAbs += math.Abs(float64(v) * float64(x[col]))
				n++
			}
		}
		ulps, atol := tensor.FastULPBound(n), tensor.FastDotBound(n, sumAbs)
		if !tensor.FastClose(got[r], want[r], ulps, atol) {
			t.Fatalf("%s: row %d: fast %v vs exact %v outside bound (ulp=%d, atol=%g)",
				label, r, got[r], want[r], tensor.ULPDiff32(got[r], want[r]), atol)
		}
	}
}

// checkFast: every lane of the fast tier's output at every width (1 is the
// serial entry) is within bound of the exact serial oracle for that lane.
func checkFast(t *testing.T, storages []storage, widths []int) {
	forEachPackedCase(t, storages, PrecisionFast, func(c packedCase) {
		want := make([]float32, c.w.Rows)
		for _, bw := range widths {
			label := fmt.Sprintf("%s bw=%d", c.label, bw)
			checkLanes(t, label, c.pp, uint64(bw), bw, func(l int, x, got []float32) {
				if err := c.exact.Run(want, x, tableScratch); err != nil {
					t.Fatal(err)
				}
				checkFastRows(t, fmt.Sprintf("%s lane %d", label, l), c, x, got, want)
			})
		}
	})
}

func TestPackedFastMatchesExactWithinBound(t *testing.T)  { checkFast(t, f32Storage, tableWidths[:1]) }
func TestPackedBatchFastMatchesExact(t *testing.T)        { checkFast(t, f32Storage, tableWidths[1:]) }
func TestPackedQFastMatchesExactWithinBound(t *testing.T) { checkFast(t, quantStorages, tableWidths) }

// checkZeroAlloc is the allocation-regression gate: steady-state execution
// on the shared scratch must not touch the heap, whatever ran on it before.
func checkZeroAlloc(t *testing.T, storages []storage, tier Precision, widths []int) {
	forEachPackedCase(t, storages, tier, func(c packedCase) {
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

func TestPackedRunZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, f32Storage, PrecisionExact, tableWidths[:1])
}
func TestRunBatchZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, f32Storage, PrecisionExact, tableWidths[1:])
}
func TestPackQuantZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, quantStorages, PrecisionExact, tableWidths)
}
func TestPackedFastRunZeroAlloc(t *testing.T) {
	checkZeroAlloc(t, allStorages, PrecisionFast, tableWidths)
}

// TestPackedStatsMatchInterpreter pins the static-stats claim: Pack's
// precomputed counts equal what the interpreter counts while executing.
func TestPackedStatsMatchInterpreter(t *testing.T) {
	scheme := prune.BSP{ColRate: 8, RowRate: 2, NumRowGroups: 8, NumColBlocks: 4}
	w := bspMat(6, 96, 64, scheme)
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		src := MatrixSource{Name: "s", W: w}
		if format == FormatBSPC {
			s := scheme
			src.Scheme = &s
		}
		prog, err := CompileProgram(src, DefaultOptions(format, 16), 6)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(8, w.Cols)
		y := make([]float32, w.Rows)
		want, err := prog.Execute(y, x)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := Pack(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		equalStats(t, want, pp.Stats(), format.String())
	}
}

// TestPackedRejectsMalformed: pack-time validation must catch the shapes the
// interpreter only detects (or misses) at run time.
func TestPackedRejectsMalformed(t *testing.T) {
	base := func() *Program { return &Program{Name: "m", Rows: 4, Cols: 4} }

	p := base()
	p.Threads = [][]Instr{{{Op: OpGather, Cols: []int32{9}}}}
	if _, err := Pack(p, 0); err == nil {
		t.Fatal("out-of-range gather column accepted")
	}

	p = base()
	p.Threads = [][]Instr{{
		{Op: OpGather, Cols: []int32{0, 1}},
		{Op: OpDotGathered, Row: 1, Vals: []float32{1}},
	}}
	if _, err := Pack(p, 0); err == nil {
		t.Fatal("dot width mismatch accepted")
	}

	p = base()
	p.Threads = [][]Instr{{{Op: OpDotGathered, Row: 0, Vals: []float32{1, 2}}}}
	if _, err := Pack(p, 0); err == nil {
		t.Fatal("gathered dot before gather accepted")
	}

	p = base()
	p.Threads = [][]Instr{{{Op: OpDotStream, Row: 0, ColLo: 2, Vals: []float32{1, 2, 3}}}}
	if _, err := Pack(p, 0); err == nil {
		t.Fatal("out-of-range stream window accepted")
	}

	p = base()
	p.Threads = [][]Instr{{{Op: OpDotStream, Row: 5, Vals: []float32{1}}}}
	if _, err := Pack(p, 0); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

// TestPackedShapeValidation keeps parity with the interpreter's checks.
func TestPackedShapeValidation(t *testing.T) {
	w := tensor.NewMatrix(4, 4)
	prog, err := CompileProgram(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Run(make([]float32, 3), make([]float32, 4), nil); err == nil {
		t.Fatal("short y accepted")
	}
	if err := pp.RunAdd(make([]float32, 4), make([]float32, 5), nil); err == nil {
		t.Fatal("long x accepted")
	}
}

// TestRunBatchShapeValidation pins the panel entries' error paths.
func TestRunBatchShapeValidation(t *testing.T) {
	w := tensor.NewMatrix(4, 4)
	prog, err := CompileProgram(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	src := MatrixSource{Name: "s", W: w, Scheme: &scheme}
	prog, err := CompileProgram(src, DefaultOptions(FormatBSPC, 32), 6)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(14, 40)
	want := make([]float32, 48)
	if _, err := prog.Execute(want, x); err != nil {
		t.Fatal(err)
	}
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

// TestPackedSegmentMerging pins the flattening layout: a dense lowering
// collapses each lane into one stream segment, and a BSPC lowering with load
// elimination shares one gather across a block's rows.
func TestPackedSegmentMerging(t *testing.T) {
	w := tensor.NewMatrix(16, 8)
	w.RandNormal(tensor.NewRNG(21), 1)
	prog, err := CompileProgram(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 32), 4)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pp.NumSegs(), len(pp.Lanes); got != want {
		t.Fatalf("dense packing has %d segments, want one per lane (%d)", got, want)
	}

	scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 2}
	wb := bspMat(22, 32, 32, scheme)
	src := MatrixSource{Name: "b", W: wb, Scheme: &scheme}
	on, err := CompileProgram(src, DefaultOptions(FormatBSPC, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	ppOn, err := Pack(on, 0)
	if err != nil {
		t.Fatal(err)
	}
	optOff := DefaultOptions(FormatBSPC, 32)
	optOff.EliminateRedundantLoads = false
	off, err := CompileProgram(src, optOff, 2)
	if err != nil {
		t.Fatal(err)
	}
	ppOff, err := Pack(off, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ppOn.NumSegs() >= ppOff.NumSegs() {
		t.Fatalf("load elimination should shrink segment count: on=%d off=%d",
			ppOn.NumSegs(), ppOff.NumSegs())
	}
	if ppOn.Stats().GatherLoads >= ppOff.Stats().GatherLoads {
		t.Fatalf("load elimination should shrink gathers: on=%d off=%d",
			ppOn.Stats().GatherLoads, ppOff.Stats().GatherLoads)
	}
}
