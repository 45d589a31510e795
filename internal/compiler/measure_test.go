package compiler

import (
	"testing"

	"rtmobile/internal/prune"
)

func measureSrc(seed uint64) MatrixSource {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(seed, 64, 48, scheme)
	s := scheme
	return MatrixSource{Name: "m", W: w, Scheme: &s}
}

func TestMeasurePackedNs(t *testing.T) {
	ns, err := MeasurePackedNs([]MatrixSource{measureSrc(41)}, DefaultOptions(FormatBSPC, 32), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Fatalf("measured %v ns, want > 0", ns)
	}
	if _, err := MeasurePackedNs(nil, DefaultOptions(FormatBSPC, 32), 4, 2); err == nil {
		t.Fatal("empty source list accepted")
	}
}

func TestTuneTilingMeasured(t *testing.T) {
	srcs := []MatrixSource{measureSrc(42)}
	res, err := TuneTilingMeasured(srcs, DefaultOptions(FormatBSPC, 32), 4, DefaultTuneSpace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Measured {
		t.Fatal("result not marked measured")
	}
	if res.Cost <= 0 {
		t.Fatalf("cost %v, want > 0 ns", res.Cost)
	}
	if res.Evaluated != len(DefaultTuneSpace().Unrolls) {
		t.Fatalf("evaluated %d candidates, want one per unroll (%d)",
			res.Evaluated, len(DefaultTuneSpace().Unrolls))
	}
	ok := false
	for _, un := range DefaultTuneSpace().Unrolls {
		if res.Tile.Unroll == un {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("chosen unroll %d not in the search space", res.Tile.Unroll)
	}
	// The winning configuration must still execute bit-identically — the
	// tuner only picks among equivalent kernels.
	opt := DefaultOptions(FormatBSPC, 32)
	opt.Tile = res.Tile
	prog, err := CompileProgram(srcs[0], opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(43, prog.Cols)
	want := make([]float32, prog.Rows)
	if _, err := prog.Execute(want, x); err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, res.Tile.Unroll)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, prog.Rows)
	if err := pp.Run(got, x, nil); err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if got[r] != want[r] {
			t.Fatalf("tuned config diverges at row %d", r)
		}
	}
}

func TestTuneBlockSizeMeasured(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(44, 64, 64, scheme)
	space := TuneSpace{RowGroups: []int{2, 4}, ColBlocks: []int{2, 4}}
	results, best, err := TuneBlockSizeMeasured(w, 4, 2, 4, space, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score < results[i-1].Score {
			t.Fatal("results not sorted best-first")
		}
	}
	if best.RowGroups <= 0 || best.ColBlocks <= 0 || best.Cost <= 0 {
		t.Fatalf("degenerate best result %+v", best)
	}
	if _, _, err := TuneBlockSizeMeasured(w, 4, 2, 4, TuneSpace{}, 1.0, 2); err == nil {
		t.Fatal("empty space accepted")
	}
}

// TestMeasureEpilogueNs: the gate-epilogue microbenchmark returns a
// positive wall time on both kernel tiers and rejects degenerate widths.
func TestMeasureEpilogueNs(t *testing.T) {
	for _, prec := range []Precision{PrecisionExact, PrecisionFast} {
		ns, err := MeasureEpilogueNs(256, prec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ns <= 0 {
			t.Fatalf("tier %v: measured %v ns, want > 0", prec, ns)
		}
	}
	if _, err := MeasureEpilogueNs(0, PrecisionExact, 2); err == nil {
		t.Fatal("zero width accepted")
	}
}

// TestTuneTilingMeasuredEpilogueObjective: with EpilogueHidden set the
// tuner folds the per-tier epilogue cost into every candidate, and the
// search still lands on a valid configuration.
func TestTuneTilingMeasuredEpilogueObjective(t *testing.T) {
	srcs := []MatrixSource{measureSrc(45)}
	space := DefaultTuneSpace()
	space.EpilogueHidden = 64
	res, err := TuneTilingMeasured(srcs, DefaultOptions(FormatBSPC, 32), 4, space, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Measured || res.Cost <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.Evaluated != len(space.Unrolls) {
		t.Fatalf("evaluated %d candidates, want %d", res.Evaluated, len(space.Unrolls))
	}
	if res.Precision != PrecisionExact {
		t.Fatalf("exact-tier caller got tier %v", res.Precision)
	}
}
