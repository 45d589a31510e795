package compiler

import (
	"math"
	"testing"
	"testing/quick"

	"rtmobile/internal/prune"
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

func execEquiv(t *testing.T, w *tensor.Matrix, src MatrixSource, opt Options, threads int) ExecStats {
	t.Helper()
	prog, err := CompileProgram(src, opt, threads)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(uint64(w.Rows)*31+uint64(w.Cols), w.Cols)
	y := make([]float32, w.Rows)
	stats, err := prog.Execute(y, x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, w.Rows)
	tensor.MatVec(want, w, x)
	for i := range y {
		if math.Abs(float64(y[i]-want[i])) > 1e-3 {
			t.Fatalf("row %d: exec %v vs dense %v", i, y[i], want[i])
		}
	}
	return stats
}

func TestExecuteDenseEquivalence(t *testing.T) {
	w := tensor.NewMatrix(17, 23)
	w.RandNormal(tensor.NewRNG(1), 1)
	stats := execEquiv(t, w, MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 16), 4)
	if stats.GatherLoads != 0 {
		t.Fatal("dense program gathered")
	}
	if stats.StreamedVals != 17*23 {
		t.Fatalf("streamed %d, want %d", stats.StreamedVals, 17*23)
	}
}

func TestExecuteCSREquivalence(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(2, 32, 32, scheme)
	stats := execEquiv(t, w, MatrixSource{Name: "c", W: w}, DefaultOptions(FormatCSR, 16), 4)
	if stats.GatherLoads != w.NNZ() {
		t.Fatalf("CSR gathers %d, want nnz %d", stats.GatherLoads, w.NNZ())
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
			execEquiv(t, w, src, opt, 4)
		}
	}
}

// The decisive validation: the executable program's measured event counts
// equal the statistics the analytical cost model is fed.
func TestExecStatsMatchCompiledStats(t *testing.T) {
	scheme := prune.BSP{ColRate: 8, RowRate: 2, NumRowGroups: 8, NumColBlocks: 4}
	w := bspMat(4, 128, 64, scheme)
	src := MatrixSource{Name: "w", W: w, Scheme: &scheme}
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		for _, elim := range []bool{true, false} {
			opt := DefaultOptions(format, 16)
			opt.EliminateRedundantLoads = elim

			_, ms, err := LowerMatrix(src, opt, 8)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := CompileProgram(src, opt, 8)
			if err != nil {
				t.Fatal(err)
			}
			x := randVec(9, w.Cols)
			y := make([]float32, w.Rows)
			stats, err := prog.Execute(y, x)
			if err != nil {
				t.Fatal(err)
			}

			if stats.GatherLoads != ms.GatherLoads {
				t.Fatalf("%v elim=%v: executed %d gathers, model priced %d",
					format, elim, stats.GatherLoads, ms.GatherLoads)
			}
			if len(stats.ThreadMACs) != len(ms.ThreadMACs) {
				t.Fatalf("%v: thread count mismatch", format)
			}
			for i := range stats.ThreadMACs {
				if stats.ThreadMACs[i] != ms.ThreadMACs[i] {
					t.Fatalf("%v elim=%v: thread %d executed %d MACs, model priced %d",
						format, elim, i, stats.ThreadMACs[i], ms.ThreadMACs[i])
				}
			}
			// Weight traffic: what the program streams equals the bytes
			// the model charges for the payload.
			if got, want := (stats.StreamedVals*opt.ValueBits+7)/8, ms.WeightBytes; got != want {
				t.Fatalf("%v elim=%v: streamed %dB, model priced %dB", format, elim, got, want)
			}
		}
	}
}

func TestExecuteShapeValidation(t *testing.T) {
	w := tensor.NewMatrix(4, 4)
	prog, err := CompileProgram(MatrixSource{Name: "d", W: w}, DefaultOptions(FormatDense, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float32, 4)
	if _, err := prog.Execute(y, make([]float32, 5)); err == nil {
		t.Fatal("wrong x length accepted")
	}
	if _, err := prog.Execute(make([]float32, 3), make([]float32, 4)); err == nil {
		t.Fatal("wrong y length accepted")
	}
}

func TestCompileProgramValidation(t *testing.T) {
	if _, err := CompileProgram(MatrixSource{Name: "nil"}, DefaultOptions(FormatDense, 16), 2); err == nil {
		t.Fatal("nil weights accepted")
	}
	w := tensor.NewMatrix(4, 4)
	if _, err := CompileProgram(MatrixSource{Name: "b", W: w}, DefaultOptions(FormatBSPC, 16), 2); err == nil {
		t.Fatal("BSPC without scheme accepted")
	}
}

// An unset ValueBits means 16 bits wherever a matrix is lowered: the program
// carries the default, so its packed footprint is the plan's, not zero.
func TestValueBitsDefault(t *testing.T) {
	w := tensor.NewMatrix(6, 10)
	w.RandNormal(tensor.NewRNG(12), 1)
	src := MatrixSource{Name: "d", W: w}
	opt := Options{Format: FormatDense}
	prog, err := CompileProgram(src, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pp.WeightBytes(), 6*10*2; got != want {
		t.Fatalf("packed dense program stores %dB, want %dB at the 16-bit default", got, want)
	}
	_, ms, err := LowerMatrix(src, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms.WeightBytes != pp.WeightBytes() {
		t.Fatalf("plan prices %dB, program stores %dB", ms.WeightBytes, pp.WeightBytes())
	}
}

// Property: program execution equals dense GEMV for arbitrary BSP-pruned
// matrices under arbitrary pass combinations.
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
		prog, err := CompileProgram(MatrixSource{Name: "q", W: w, Scheme: &scheme}, opt, 3)
		if err != nil {
			return false
		}
		x := randVec(seed^0xbeef, cols)
		y := make([]float32, rows)
		if _, err := prog.Execute(y, x); err != nil {
			return false
		}
		want := make([]float32, rows)
		tensor.MatVec(want, w, x)
		for i := range y {
			if math.Abs(float64(y[i]-want[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
