package compiler

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rtmobile/internal/prune"
)

// sectionsTestProgram lowers a BSPC test matrix, returning the program and
// its plan.
func sectionsTestProgram(t *testing.T, seed uint64) (*PackedProgram, *Plan) {
	t.Helper()
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(seed, 48, 40, scheme)
	plan, progs, err := CompilePlan("m", []MatrixSource{{Name: "m", W: w, Scheme: &scheme}},
		DefaultOptions(FormatBSPC, 32), 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return progs[0], plan
}

// TestPackedSectionsRoundTrip: Sections → NewPackedFromSections rebuilds a
// program that executes bit-identically to the original and that the
// original's plan prices.
func TestPackedSectionsRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 4, 8} {
		pp, plan := sectionsTestProgram(t, seed)
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
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("seed=%d row %d: %v vs %v", seed, r, want[r], got[r])
			}
		}
		if !plan.Prices([]*PackedProgram{re}) {
			t.Fatalf("seed=%d: the plan does not price the rebuilt program", seed)
		}
		if re.MaxGather != pp.MaxGather || re.TotalMACs() != pp.TotalMACs() {
			t.Fatalf("MaxGather %d vs %d, TotalMACs %d vs %d", re.MaxGather, pp.MaxGather, re.TotalMACs(), pp.TotalMACs())
		}
	}
}

// inLanes re-serializes one-lane sections the way the chunked lowering
// wrote them: the segments split into lanes of at most per segments, each
// lane's RowOff relative to its own rows.
func inLanes(s *PackedSections, per int) *PackedSections {
	l := *s
	l.LaneSegCounts, l.LaneRowCounts = nil, nil
	l.SegWords = append([]int32(nil), s.SegWords...)
	nsegs := len(s.SegWords) / segWordsPerSeg
	for lo := 0; lo < nsegs; lo += per {
		hi := min(lo+per, nsegs)
		base := l.SegWords[lo*segWordsPerSeg+4]
		rows := int32(0)
		for i := lo; i < hi; i++ {
			w := l.SegWords[i*segWordsPerSeg : (i+1)*segWordsPerSeg]
			w[4] -= base
			rows += w[5]
		}
		l.LaneSegCounts = append(l.LaneSegCounts, int32(hi-lo))
		l.LaneRowCounts = append(l.LaneRowCounts, rows)
	}
	return &l
}

// TestPackedSectionsRebaseLanes: sections stored in several lanes — as
// files written while the lowering cut programs into the modelled target's
// thread lanes hold them — load into the one segment list, rows rebased, and
// run the same bits.
func TestPackedSectionsRebaseLanes(t *testing.T) {
	pp, plan := sectionsTestProgram(t, 3)
	for _, per := range []int{1, 2, 3} {
		re, err := NewPackedFromSections(inLanes(pp.Sections(), per))
		if err != nil {
			t.Fatalf("%d segments per lane: %v", per, err)
		}
		if !reflect.DeepEqual(re.Segs, pp.Segs) || !plan.Prices([]*PackedProgram{re}) {
			t.Fatalf("%d segments per lane: segments %+v, want %+v", per, re.Segs, pp.Segs)
		}
		sameSections(t, "rebased", re.Sections(), pp.Sections())
	}
	// A lane's rows bound its segments: a segment may not reach into the
	// next lane's rows.
	s := inLanes(pp.Sections(), 1)
	s.SegWords[5]++
	if _, err := NewPackedFromSections(s); err == nil || !strings.Contains(err.Error(), "lane") {
		t.Fatalf("a segment reaching past its lane's rows: error %v", err)
	}
}

// TestPackedQSectionsRoundTrip: the quantized equivalent, at 8 and 16 bits.
func TestPackedQSectionsRoundTrip(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(5, 48, 40, scheme)
	prog, _ := lower(t, MatrixSource{Name: "m", W: w, Scheme: &scheme}, DefaultOptions(FormatBSPC, 32), 4)
	for _, bits := range []int{8, 16} {
		pq := packQuant(prog, bits)
		re, err := NewPackedFromSections(pq.Sections())
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
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
				t.Fatalf("bits=%d row %d: %v vs %v", bits, r, want[r], got[r])
			}
		}
	}
}

// TestPackedSectionsRejectsCorrupt: rebuilt programs execute unchecked
// gathers, so every malformed section shape must be rejected at
// construction with a contextual error.
func TestPackedSectionsRejectsCorrupt(t *testing.T) {
	// Sections alias the program's arrays, so every case lowers afresh.
	base := func() *PackedSections {
		pp, _ := sectionsTestProgram(t, 11)
		return pp.Sections()
	}
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
		{"lane count mismatch", func(s *PackedSections) { s.LaneSegCounts = append(s.LaneSegCounts, 0) }, "lane"},
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
	opt := DefaultOptions(FormatBSPC, 32)
	opt.QuantBits = 8
	base := func() *PackedSections {
		pq, _ := lower(t, MatrixSource{Name: "m", W: w, Scheme: &scheme}, opt, 4)
		return pq.Sections()
	}
	cases := []struct {
		name    string
		mutate  func(*PackedSections)
		wantErr string
	}{
		{"bad bits", func(s *PackedSections) { s.Bits = 9 }, "width"},
		{"scales wrong length", func(s *PackedSections) { s.Scales = s.Scales[:1] }, "scale"},
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
