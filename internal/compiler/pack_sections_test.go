package compiler

import (
	"math"
	"strings"
	"testing"

	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
)

// sectionsTestProgram compiles and packs a BSPC test matrix.
func sectionsTestProgram(t *testing.T, seed uint64) *PackedProgram {
	t.Helper()
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(seed, 48, 40, scheme)
	s := scheme
	prog, err := CompileProgram(MatrixSource{Name: "m", W: w, Scheme: &s},
		DefaultOptions(FormatBSPC, 32), 4)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Pack(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestPackedSectionsRoundTrip: Sections → NewPackedFromSections rebuilds a
// program that executes bit-identically to the original.
func TestPackedSectionsRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 4, 8} {
		pp := sectionsTestProgram(t, seed)
		re, err := NewPackedFromSections(pp.Sections())
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		x := randVec(99, pp.Cols)
		want := make([]float32, pp.Rows)
		got := make([]float32, pp.Rows)
		if err := pp.Run(want, x, nil); err != nil {
			t.Fatal(err)
		}
		if err := re.Run(got, x, nil); err != nil {
			t.Fatal(err)
		}
		wantStats, gotStats := pp.Stats(), re.Stats()
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("seed=%d row %d: %v vs %v", seed, r, want[r], got[r])
			}
		}
		if wantStats.GatherLoads != gotStats.GatherLoads ||
			wantStats.StreamedVals != gotStats.StreamedVals ||
			wantStats.TotalMACs() != gotStats.TotalMACs() {
			t.Fatalf("seed=%d stats differ: %+v vs %+v", seed, wantStats, gotStats)
		}
		if re.MaxGather != pp.MaxGather {
			t.Fatalf("MaxGather %d vs %d", re.MaxGather, pp.MaxGather)
		}
	}
}

// TestPackedQSectionsRoundTrip: the quantized equivalent, at 8 and 16 bits
// and both scale schemes.
func TestPackedQSectionsRoundTrip(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(5, 48, 40, scheme)
	s := scheme
	prog, err := CompileProgram(MatrixSource{Name: "m", W: w, Scheme: &s},
		DefaultOptions(FormatBSPC, 32), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{8, 16} {
		for _, sc := range []quant.Scheme{quant.PerTensor, quant.PerRow} {
			pq, err := PackQuant(prog, bits, sc)
			if err != nil {
				t.Fatal(err)
			}
			re, err := NewPackedFromSections(pq.Sections())
			if err != nil {
				t.Fatalf("bits=%d scheme=%d: %v", bits, sc, err)
			}
			x := randVec(7, pq.Cols)
			want := make([]float32, pq.Rows)
			got := make([]float32, pq.Rows)
			if err := pq.Run(want, x, nil); err != nil {
				t.Fatal(err)
			}
			if err := re.Run(got, x, nil); err != nil {
				t.Fatal(err)
			}
			for r := range want {
				if want[r] != got[r] {
					t.Fatalf("bits=%d scheme=%d row %d: %v vs %v", bits, sc, r, want[r], got[r])
				}
			}
		}
	}
}

// TestPackedSectionsRejectsCorrupt: rebuilt programs execute unchecked
// gathers, so every malformed section shape must be rejected at
// construction with a contextual error.
func TestPackedSectionsRejectsCorrupt(t *testing.T) {
	base := func() *PackedSections { return sectionsTestProgram(t, 11).Sections() }
	cases := []struct {
		name    string
		mutate  func(*PackedSections)
		wantErr string
	}{
		{"colidx out of range", func(s *PackedSections) { s.ColIdx[0] = int32(s.Cols) }, "column"},
		{"negative colidx", func(s *PackedSections) { s.ColIdx[0] = -1 }, "column"},
		{"rowidx out of range", func(s *PackedSections) { s.RowIdx[0] = int32(s.Rows) }, "output row"},
		{"bad segment kind", func(s *PackedSections) { s.SegWords[0] = 99 }, "kind"},
		{"ragged segment words", func(s *PackedSections) { s.SegWords = s.SegWords[:len(s.SegWords)-1] }, "segment"},
		{"lane count mismatch", func(s *PackedSections) { s.LaneSegCounts = s.LaneSegCounts[:1] }, "lane"},
		{"row total mismatch", func(s *PackedSections) { s.LaneRowCounts[0]++ }, "row"},
		{"negative rows", func(s *PackedSections) { s.Rows = -1 }, "shape"},
		{"vals too short", func(s *PackedSections) { s.Vals = s.Vals[:len(s.Vals)-1] }, "vals"},
		{"quantized into float", func(s *PackedSections) { s.Bits = 8 }, "quantized"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			if _, err := NewPackedFromSections(s); err == nil {
				t.Fatal("corrupt sections accepted")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestPackedQSectionsRejectsCorrupt: the storage validation of quantized
// sections, on top of the shared lane checks.
func TestPackedQSectionsRejectsCorrupt(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(13, 48, 40, scheme)
	s := scheme
	prog, err := CompileProgram(MatrixSource{Name: "m", W: w, Scheme: &s},
		DefaultOptions(FormatBSPC, 32), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := func() *PackedSections {
		pq, err := PackQuant(prog, 8, quant.PerRow)
		if err != nil {
			t.Fatal(err)
		}
		return pq.Sections()
	}
	cases := []struct {
		name    string
		mutate  func(*PackedSections)
		wantErr string
	}{
		{"bad bits", func(s *PackedSections) { s.Bits = 9 }, "width"},
		{"bad scale scheme", func(s *PackedSections) { s.Scheme = 7 }, "scheme"},
		{"scales wrong length", func(s *PackedSections) { s.Scales = s.Scales[:1] }, "scale"},
		{"bad numscales", func(s *PackedSections) { s.NumScales = 3 }, "scale"},
		{"both val widths", func(s *PackedSections) { s.Vals16 = make([]int16, len(s.Vals8)) }, "int16"},
		{"float into quantized", func(s *PackedSections) { s.Bits = 0 }, "quantized"},
		{"nan scale", func(s *PackedSections) { s.Scales[1] = float32(math.NaN()) }, "scale"},
		{"inf scale", func(s *PackedSections) { s.Scales[2] = float32(math.Inf(1)) }, "scale"},
		{"zero scale", func(s *PackedSections) { s.Scales[0] = 0 }, "scale"},
		{"negative scale", func(s *PackedSections) { s.Scales[3] = -s.Scales[3] }, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			if _, err := NewPackedFromSections(s); err == nil {
				t.Fatal("corrupt sections accepted")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
