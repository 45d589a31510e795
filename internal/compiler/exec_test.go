package compiler

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"rtmobile/internal/prune"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

func randVec(seed uint64, n int) []float32 {
	rng := tensor.NewRNG(seed)
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

// lower is LowerMatrix for a test that needs it to succeed.
func lower(t testing.TB, src MatrixSource, opt Options, threads int) (*PackedProgram, MatrixStats) {
	t.Helper()
	pp, ms, err := LowerMatrix(src, opt, threads)
	if err != nil {
		t.Fatal(err)
	}
	return pp, ms
}

// matVecAddEquiv lowers w and asserts the dense-order contract: the program
// accumulated onto a bias is tensor.MatVecAdd on w, bit for bit.
func matVecAddEquiv(t *testing.T, w *tensor.Matrix, src MatrixSource, opt Options, threads int) (*PackedProgram, MatrixStats) {
	t.Helper()
	pp, ms := lower(t, src, opt, threads)
	x := randVec(uint64(w.Rows)*31+uint64(w.Cols), w.Cols)
	got := randVec(uint64(w.Rows)+5, w.Rows)
	want := append([]float32(nil), got...)
	if err := pp.RunAdd(got, x, nil); err != nil {
		t.Fatal(err)
	}
	tensor.MatVecAdd(want, w, x)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("row %d: program %v vs tensor.MatVecAdd %v", i, got[i], want[i])
		}
	}
	return pp, ms
}

func TestExecuteDenseEquivalence(t *testing.T) {
	w := tensor.NewMatrix(17, 23)
	w.RandNormal(tensor.NewRNG(1), 1)
	pp, ms := matVecAddEquiv(t, w, MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 16), 4)
	if ms.GatherLoads != 0 {
		t.Fatal("dense program gathered")
	}
	if len(pp.Vals) != 17*23 {
		t.Fatalf("streams %d values, want %d", len(pp.Vals), 17*23)
	}
}

func TestExecuteCSREquivalence(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(2, 32, 32, scheme)
	_, ms := matVecAddEquiv(t, w, MatrixSource{Name: "c", W: w}, DefaultOptions(FormatCSR, 16), 4)
	if ms.GatherLoads != w.NNZ() {
		t.Fatalf("CSR gathers %d, want nnz %d", ms.GatherLoads, w.NNZ())
	}
}

func TestExecuteBSPCEquivalence(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(3, 64, 48, scheme)
	src := MatrixSource{Name: "b", W: w, Scheme: &scheme}
	for _, elim := range []bool{true, false} {
		for _, reorder := range []bool{true, false} {
			opt := DefaultOptions(FormatBSPC, 16)
			opt.EliminateRedundantLoads = elim
			opt.Reorder = reorder
			matVecAddEquiv(t, w, src, opt, 4)
		}
	}
}

// chunkedCounts is what the lowering counted while it still cut every
// program into one lane per modelled thread, recomputed from the matrix and
// its encoding alone: the rows in storage order cut by assignThreads over
// their schedule work (a dense row's width, a sparse row's nonzeros); a
// lane's MACs are its rows' dot widths, and it gathers each CSR row once
// and each BSPC row group once (per row without load elimination).
func chunkedCounts(w *tensor.Matrix, scheme *prune.BSP, opt Options, threads int) (threadMACs []int, gathers int) {
	order := identity(w.Rows)
	if opt.Reorder && opt.Format != FormatDense {
		order = Reorder(w)
	}
	work := make([]int, w.Rows)
	for r := range work {
		if opt.Format == FormatDense {
			work[r] = w.Cols
			continue
		}
		for _, v := range w.Row(r) {
			if v != 0 {
				work[r]++
			}
		}
	}
	chunkOf := make([]int, w.Rows)
	cut := assignThreads(order, work, threads, opt.Reorder)
	for t := 0; t+1 < len(cut); t++ {
		for _, r := range order[cut[t]:cut[t+1]] {
			chunkOf[r] = t
		}
	}
	threadMACs = make([]int, len(cut)-1)
	switch opt.Format {
	case FormatDense:
		for r := range work {
			threadMACs[chunkOf[r]] += w.Cols
		}
	case FormatCSR:
		for r, n := range work {
			threadMACs[chunkOf[r]] += n
			gathers += n
		}
	case FormatBSPC:
		groups := map[int32][]sparse.Block{}
		var los []int32
		for _, blk := range sparse.NewBSPC(w, *scheme).Blocks {
			if groups[blk.RowLo] == nil {
				los = append(los, blk.RowLo)
			}
			groups[blk.RowLo] = append(groups[blk.RowLo], blk)
		}
		for _, lo := range los {
			nc := 0
			for _, blk := range groups[lo] {
				nc += len(blk.ColIdx)
			}
			lanes := map[int]bool{}
			for _, r := range groups[lo][0].RowIdx {
				t := chunkOf[r]
				threadMACs[t] += nc
				if !opt.EliminateRedundantLoads || !lanes[t] {
					gathers += nc
					lanes[t] = true
				}
			}
		}
	}
	return threadMACs, gathers
}

// TestExecStatsMatchCompiledStats: the plan's counted fields, read off the
// one-lane program through the modelled thread chunks, are what the chunked
// lowering counted, and the weight bytes are the program's stored values at
// the plan's width.
func TestExecStatsMatchCompiledStats(t *testing.T) {
	scheme := prune.BSP{ColRate: 8, RowRate: 2, NumRowGroups: 8, NumColBlocks: 4}
	w := bspMat(4, 128, 64, scheme)
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		src := MatrixSource{Name: "w", W: w}
		if format == FormatBSPC {
			src.Scheme = &scheme
		}
		for _, elim := range []bool{true, false} {
			for _, reorder := range []bool{true, false} {
				for _, threads := range []int{1, 3, 8, 64} {
					opt := DefaultOptions(format, 16)
					opt.EliminateRedundantLoads = elim
					opt.Reorder = reorder
					pp, ms := lower(t, src, opt, threads)
					macs, gathers := chunkedCounts(w, src.Scheme, opt, threads)
					if !reflect.DeepEqual(ms.ThreadMACs, macs) {
						t.Fatalf("%v elim=%v reorder=%v threads=%d: plan prices %v MACs per thread, the chunked lowering counted %v",
							format, elim, reorder, threads, ms.ThreadMACs, macs)
					}
					if ms.GatherLoads != gathers {
						t.Fatalf("%v elim=%v reorder=%v threads=%d: plan prices %d gathers, the chunked lowering counted %d",
							format, elim, reorder, threads, ms.GatherLoads, gathers)
					}
					if format != FormatDense && ms.EliminatedLoads != pp.TotalMACs()-gathers {
						t.Fatalf("%v elim=%v: eliminated %d, want %d", format, elim, ms.EliminatedLoads, pp.TotalMACs()-gathers)
					}
					if got, want := ms.WeightBytes, (len(pp.Vals)*opt.ValueBits+7)/8; got != want {
						t.Fatalf("%v elim=%v: plan prices %dB, program stores %dB", format, elim, got, want)
					}
				}
			}
		}
	}
}

// TestLowerMatrixThreadsOnlyInPlan: the modelled thread count is a pricing
// input only — one source lowers to byte-identical sections at 1, 8 and 64
// threads, while the plans, cut into that many chunks, differ.
func TestLowerMatrixThreadsOnlyInPlan(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 8, NumColBlocks: 4}
	w := bspMat(41, 96, 64, scheme)
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		src := MatrixSource{Name: "w", W: w}
		if format == FormatBSPC {
			src.Scheme = &scheme
		}
		opt := DefaultOptions(format, 32)
		one, plan1 := lower(t, src, opt, 1)
		for _, threads := range []int{8, 64} {
			pp, plan := lower(t, src, opt, threads)
			sameSections(t, format.String(), pp.Sections(), one.Sections())
			if len(plan.ThreadMACs) != threads || reflect.DeepEqual(plan, plan1) {
				t.Fatalf("%s: the %d-thread plan %+v does not differ from the 1-thread one", format, threads, plan)
			}
			if format == FormatBSPC && plan.GatherLoads <= plan1.GatherLoads {
				t.Fatalf("%s: %d threads price %d gathers, one prices %d: a row group cut across chunks gathers once per chunk",
					format, threads, plan.GatherLoads, plan1.GatherLoads)
			}
		}
	}
}

func TestCompileProgramValidation(t *testing.T) {
	if _, _, err := LowerMatrix(MatrixSource{Name: "nil"}, DefaultOptions(FormatDense, 16), 2); err == nil {
		t.Fatal("nil weights accepted")
	}
	w := tensor.NewMatrix(4, 4)
	if _, _, err := LowerMatrix(MatrixSource{Name: "b", W: w}, DefaultOptions(FormatBSPC, 16), 2); err == nil {
		t.Fatal("BSPC without scheme accepted")
	}
	if _, _, err := LowerMatrix(MatrixSource{Name: "b", W: w}, Options{Format: Format(9)}, 2); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// An unset ValueBits means 16 bits wherever a matrix is lowered: the program
// carries the default, so its packed footprint is the plan's, not zero.
func TestValueBitsDefault(t *testing.T) {
	w := tensor.NewMatrix(6, 10)
	w.RandNormal(tensor.NewRNG(12), 1)
	pp, ms := lower(t, MatrixSource{Name: "d", W: w}, Options{Format: FormatDense}, 1)
	if got, want := pp.WeightBytes(), 6*10*2; got != want {
		t.Fatalf("packed dense program stores %dB, want %dB at the 16-bit default", got, want)
	}
	if ms.WeightBytes != pp.WeightBytes() {
		t.Fatalf("plan prices %dB, program stores %dB", ms.WeightBytes, pp.WeightBytes())
	}
}

// Property: the lowered program accumulated into y is tensor.MatVecAdd for
// arbitrary BSP-pruned matrices under arbitrary pass combinations.
func TestQuickExecuteEquivalence(t *testing.T) {
	f := func(seed uint64, elim, reorder bool) bool {
		rng := tensor.NewRNG(seed)
		rows := 8 + rng.Intn(24)
		cols := 8 + rng.Intn(24)
		scheme := prune.BSP{ColRate: 3, RowRate: 2, NumRowGroups: 2, NumColBlocks: 2}
		w := tensor.NewMatrix(rows, cols)
		w.RandNormal(rng, 1)
		w = scheme.Project(w)
		opt := DefaultOptions(FormatBSPC, 16)
		opt.EliminateRedundantLoads = elim
		opt.Reorder = reorder
		pp, _, err := LowerMatrix(MatrixSource{Name: "q", W: w, Scheme: &scheme}, opt, 3)
		if err != nil {
			return false
		}
		x := randVec(seed^0xbeef, cols)
		y := make([]float32, rows)
		if err := pp.RunAdd(y, x, nil); err != nil {
			return false
		}
		want := make([]float32, rows)
		tensor.MatVecAdd(want, w, x)
		for i := range y {
			if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
