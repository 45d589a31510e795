package compiler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtmobile/internal/prune"
)

// goldenPlansFile pins the float plans of every format × load elimination ×
// reorder × thread count over two BSP-projected shapes, byte for byte: the
// device models price these numbers, so a change to how the compiler lowers
// or counts a matrix must show up here as a deliberate diff.
const goldenPlansFile = "testdata/plans.json"

// goldenPlanCase is one pinned plan's compile options.
type goldenPlanCase struct {
	format           Format
	elim, reorder    bool
	threads          int
	rowsA, colsA     int
	schemeA, schemeB prune.BSP
}

func goldenPlanCases() []goldenPlanCase {
	var cases []goldenPlanCase
	for _, format := range []Format{FormatDense, FormatCSR, FormatBSPC} {
		for _, elim := range []bool{true, false} {
			for _, reorder := range []bool{true, false} {
				for _, threads := range []int{1, 8} {
					cases = append(cases, goldenPlanCase{
						format: format, elim: elim, reorder: reorder, threads: threads,
						rowsA: 96, colsA: 64,
						schemeA: prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 8, NumColBlocks: 4},
						schemeB: prune.BSP{ColRate: 8, RowRate: 1.5, NumRowGroups: 6, NumColBlocks: 8},
					})
				}
			}
		}
	}
	return cases
}

// sources returns the case's two matrices: rowsA×colsA under schemeA and its
// transpose shape under schemeB, schemes attached only for BSPC.
func (c goldenPlanCase) sources() []MatrixSource {
	a, b := c.schemeA, c.schemeB
	srcs := []MatrixSource{
		{Name: "a", W: bspMat(29, c.rowsA, c.colsA, a)},
		{Name: "b", W: bspMat(30, c.colsA, c.rowsA, b)},
	}
	if c.format == FormatBSPC {
		srcs[0].Scheme, srcs[1].Scheme = &a, &b
	}
	return srcs
}

func (c goldenPlanCase) options() Options {
	opt := DefaultOptions(c.format, 16)
	opt.EliminateRedundantLoads = c.elim
	opt.Reorder = c.reorder
	return opt
}

func (c goldenPlanCase) name() string {
	return fmt.Sprintf("%s/elim=%v/reorder=%v/threads=%d", c.format, c.elim, c.reorder, c.threads)
}

// TestPlansMatchGolden compiles every golden case and compares its plan's
// JSON with the pinned line.
func TestPlansMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(goldenPlansFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	cases := goldenPlanCases()
	if len(lines) != len(cases) {
		t.Fatalf("%s has %d plans, want %d", goldenPlansFile, len(lines), len(cases))
	}
	for i, c := range cases {
		plan, _, err := CompilePlan(c.name(), c.sources(), c.options(), c.threads, 30, 128)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		got, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, lines[i]) {
			t.Errorf("%s: plan differs from the golden\n got %s\nwant %s", c.name(), got, lines[i])
		}
	}
}
