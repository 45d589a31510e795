package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

func randSparse(seed uint64, rows, cols int, density float64) *tensor.Matrix {
	rng := tensor.NewRNG(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

func vecClose(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol {
			return false
		}
	}
	return true
}

func TestCSRRoundTrip(t *testing.T) {
	m := randSparse(1, 13, 17, 0.3)
	if !NewCSR(m).Dense().Equal(m) {
		t.Fatal("CSR round trip failed")
	}
}

func TestCSCRoundTrip(t *testing.T) {
	m := randSparse(2, 13, 17, 0.3)
	if !NewCSC(m).Dense().Equal(m) {
		t.Fatal("CSC round trip failed")
	}
}

func TestCSRMatVecMatchesDense(t *testing.T) {
	m := randSparse(3, 10, 12, 0.4)
	x := make([]float32, 12)
	rng := tensor.NewRNG(4)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	want := make([]float32, 10)
	tensor.MatVec(want, m, x)
	got := make([]float32, 10)
	NewCSR(m).MatVec(got, x)
	if !vecClose(got, want, 1e-4) {
		t.Fatal("CSR MatVec != dense")
	}
}

func TestCSCMatVecMatchesDense(t *testing.T) {
	m := randSparse(5, 10, 12, 0.4)
	x := make([]float32, 12)
	rng := tensor.NewRNG(6)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	want := make([]float32, 10)
	tensor.MatVec(want, m, x)
	got := make([]float32, 10)
	NewCSC(m).MatVec(got, x)
	if !vecClose(got, want, 1e-4) {
		t.Fatal("CSC MatVec != dense")
	}
}

func TestCSREmptyAndDenseExtremes(t *testing.T) {
	empty := tensor.NewMatrix(4, 4)
	c := NewCSR(empty)
	if c.NNZ() != 0 {
		t.Fatal("empty matrix has nonzeros")
	}
	if !c.Dense().Equal(empty) {
		t.Fatal("empty round trip")
	}
	full := randSparse(7, 4, 4, 1.1)
	if NewCSR(full).NNZ() != 16 {
		t.Fatal("dense matrix NNZ wrong")
	}
}

func TestCSRRowNNZ(t *testing.T) {
	m := tensor.FromRows([][]float32{{1, 0, 2}, {0, 0, 0}, {3, 4, 5}})
	nnz := NewCSR(m).RowNNZ()
	if nnz[0] != 2 || nnz[1] != 0 || nnz[2] != 3 {
		t.Fatalf("RowNNZ got %v", nnz)
	}
}

func TestCSRBytesAccounting(t *testing.T) {
	m := randSparse(8, 100, 100, 0.1)
	c := NewCSR(m)
	got := c.Bytes(32, 32)
	want := (101*32 + c.NNZ()*32 + c.NNZ()*32 + 7) / 8
	if got != want {
		t.Fatalf("Bytes %d, want %d", got, want)
	}
	// Narrower widths shrink footprint.
	if c.Bytes(16, 16) >= got {
		t.Fatal("16-bit encoding not smaller than 32-bit")
	}
}

func TestDenseBytes(t *testing.T) {
	if DenseBytes(10, 10, 32) != 400 {
		t.Fatal("DenseBytes 32-bit wrong")
	}
	if DenseBytes(10, 10, 16) != 200 {
		t.Fatal("DenseBytes 16-bit wrong")
	}
}

func TestESEEncodeNoPadding(t *testing.T) {
	// Dense column: all gaps are 1, no padding.
	m := tensor.NewMatrix(10, 1)
	for i := 0; i < 10; i++ {
		m.Set(i, 0, 1)
	}
	if n := NewCSC(m).eseEntries(); n != 10 {
		t.Fatalf("dense column stores %d entries, want 10", n)
	}
}

func TestESEEncodePadding(t *testing.T) {
	// One nonzero at row 0 and one at row 40: gap of 40 needs padding.
	m := tensor.NewMatrix(64, 1)
	m.Set(0, 0, 1)
	m.Set(40, 0, 1)
	// gap from row 0 to 40 is 40 -> ceil-ish: two 16-steps leave 8 -> 2 pads
	// beside the 2 nonzeros.
	if n := NewCSC(m).eseEntries(); n != 4 {
		t.Fatalf("stored %d, want 4", n)
	}
}

func TestESEEffectiveCompressionPenalized(t *testing.T) {
	// A 10x-sparse random matrix: raw value compression would be ~10×, but
	// index overhead must pull the effective rate below that.
	m := prune.Magnitude{Rate: 10}.Project(randSparse(9, 256, 256, 1.1))
	c := NewCSC(m)
	eff := c.EffectiveCompressionESE()
	if eff >= 10 {
		t.Fatalf("ESE effective compression %v not penalized below raw 10x", eff)
	}
	if eff < 4 {
		t.Fatalf("ESE effective compression %v implausibly low", eff)
	}
}

func bspScheme() prune.BSP {
	return prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
}

func TestBSPCRoundTrip(t *testing.T) {
	scheme := bspScheme()
	m := scheme.Project(randSparse(10, 32, 32, 1.1))
	b := NewBSPC(m, scheme)
	if !b.Dense().Equal(m) {
		t.Fatal("BSPC round trip failed")
	}
}

func TestBSPCMatVecMatchesDense(t *testing.T) {
	scheme := bspScheme()
	m := scheme.Project(randSparse(11, 32, 48, 1.1))
	b := NewBSPC(m, scheme)
	x := make([]float32, 48)
	rng := tensor.NewRNG(12)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	want := make([]float32, 32)
	tensor.MatVec(want, m, x)
	got := make([]float32, 32)
	b.MatVec(got, x)
	if !vecClose(got, want, 1e-4) {
		t.Fatal("BSPC MatVec != dense")
	}
}

func TestBSPCSmallerThanCSRForBlockSparsity(t *testing.T) {
	// On a BSP-pruned matrix the shared per-block index lists must beat
	// CSR's per-nonzero indices — the claim of Section IV-B(c).
	scheme := prune.BSP{ColRate: 8, RowRate: 2, NumRowGroups: 8, NumColBlocks: 8}
	m := scheme.Project(randSparse(13, 256, 256, 1.1))
	b := NewBSPC(m, scheme)
	csr := NewCSR(m)
	bspcBytes := b.Bytes(16)
	csrBytes := csr.Bytes(16, 16)
	if bspcBytes >= csrBytes {
		t.Fatalf("BSPC %dB not smaller than CSR %dB on block-sparse matrix", bspcBytes, csrBytes)
	}
}

func TestBSPCCompressionTracksPruningRate(t *testing.T) {
	scheme := prune.BSP{ColRate: 16, RowRate: 2, NumRowGroups: 8, NumColBlocks: 8}
	m := scheme.Project(randSparse(14, 512, 512, 1.1))
	b := NewBSPC(m, scheme)
	comp := b.CompressionVsDense()
	// Raw pruning rate is ~32x; with index overhead BSPC should land
	// between 16x and 32x.
	if comp < 16 || comp > 33 {
		t.Fatalf("BSPC compression %v, want within (16,33)", comp)
	}
}

func TestBSPCDropsEmptyBlocks(t *testing.T) {
	// With row rate pruning whole groups away, empty blocks must not be
	// stored.
	scheme := prune.BSP{ColRate: 2, RowRate: 8, NumRowGroups: 8, NumColBlocks: 2}
	m := scheme.Project(randSparse(15, 64, 16, 1.1))
	b := NewBSPC(m, scheme)
	for _, blk := range b.Blocks {
		if len(blk.RowIdx) == 0 || len(blk.ColIdx) == 0 {
			t.Fatal("empty block stored")
		}
	}
}

// Property: all three formats reconstruct any matrix exactly.
func TestQuickFormatsRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		m := randSparse(seed, 12, 12, 0.35)
		if !NewCSR(m).Dense().Equal(m) {
			return false
		}
		if !NewCSC(m).Dense().Equal(m) {
			return false
		}
		scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 3, NumColBlocks: 3}
		pm := scheme.Project(m)
		return NewBSPC(pm, scheme).Dense().Equal(pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR and CSC MatVec agree on arbitrary sparse matrices.
func TestQuickCSRvsCSCMatVec(t *testing.T) {
	f := func(seed uint64) bool {
		m := randSparse(seed, 9, 11, 0.4)
		rng := tensor.NewRNG(seed ^ 0xabcdef)
		x := make([]float32, 11)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		a := make([]float32, 9)
		b := make([]float32, 9)
		NewCSR(m).MatVec(a, x)
		NewCSC(m).MatVec(b, x)
		return vecClose(a, b, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPCString(t *testing.T) {
	scheme := bspScheme()
	m := scheme.Project(randSparse(16, 32, 32, 1.1))
	if NewBSPC(m, scheme).String() == "" {
		t.Fatal("empty String")
	}
}
