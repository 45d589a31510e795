package compiler

import (
	"strings"
	"testing"

	"rtmobile/internal/prune"
)

func compileTestPlan(t *testing.T, format Format, reorder, loadelim bool) *Plan {
	t.Helper()
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(50, 32, 32, scheme)
	src := MatrixSource{Name: "gru0.Wh", W: w, Scheme: &scheme}
	opt := DefaultOptions(format, 16)
	opt.Reorder = reorder
	opt.EliminateRedundantLoads = loadelim
	plan, _, err := CompilePlan("m", []MatrixSource{src}, opt, 4, 30, 128)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestListingBSPC(t *testing.T) {
	out := EmitListing(compileTestPlan(t, FormatBSPC, true, true))
	for _, want := range []string{
		"format=bspc", "kernel gru0.Wh:", "permute rows",
		"gather.x blk.cols", "loads eliminated", "kernel elementwise",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestListingCSR(t *testing.T) {
	out := EmitListing(compileTestPlan(t, FormatCSR, false, false))
	if !strings.Contains(out, "gather.x colidx[k]") {
		t.Fatalf("CSR listing missing per-nonzero gather:\n%s", out)
	}
	if strings.Contains(out, "permute rows") {
		t.Fatal("reorder disabled but permute emitted")
	}
}

func TestListingDense(t *testing.T) {
	out := EmitListing(compileTestPlan(t, FormatDense, false, false))
	if !strings.Contains(out, "load.x  stream") {
		t.Fatalf("dense listing missing streaming load:\n%s", out)
	}
	if strings.Contains(out, "gather") {
		t.Fatal("dense listing should have no gathers")
	}
}

func TestListingDeterministic(t *testing.T) {
	a := EmitListing(compileTestPlan(t, FormatBSPC, true, true))
	b := EmitListing(compileTestPlan(t, FormatBSPC, true, true))
	if a != b {
		t.Fatal("listing not deterministic")
	}
}

func TestListingLoadElimOff(t *testing.T) {
	out := EmitListing(compileTestPlan(t, FormatBSPC, true, false))
	if !strings.Contains(out, "load elimination off") {
		t.Fatalf("listing should note disabled pass:\n%s", out)
	}
}
