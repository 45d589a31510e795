package compiler

import (
	"fmt"
	"math"
	"testing"

	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// fuzzCompile builds the adversarially-shaped matrix every fuzz target
// lowers (0 rows, 1 column, all-zero contents, ragged block grids, hostile
// thread counts) and lowers it. Rejection by LowerMatrix is fine — pp is
// nil then; panics and wrong numbers are not.
func fuzzCompile(seed uint64, rows, cols uint16, formatSel uint8, threads int16,
	rowGroups, colBlocks uint8, allZero bool) (w *tensor.Matrix, scheme prune.BSP, pp *PackedProgram, ms MatrixStats) {
	r, c := int(rows%64), int(cols%64)
	w = tensor.NewMatrix(r, c)
	if !allZero {
		w.RandNormal(tensor.NewRNG(seed), 1)
	}
	scheme = prune.BSP{
		ColRate: 1 + float64(seed%7), RowRate: 1 + float64(seed%3),
		NumRowGroups: int(rowGroups%12) + 1, NumColBlocks: int(colBlocks%12) + 1,
	}
	format := []Format{FormatDense, FormatCSR, FormatBSPC}[formatSel%3]
	src := MatrixSource{Name: "fuzz", W: w}
	if format == FormatBSPC {
		if r > 0 && c > 0 && !allZero {
			w = scheme.Project(w)
			src.W = w
		}
		s := scheme
		src.Scheme = &s
	}
	pp, ms, _ = LowerMatrix(src, DefaultOptions(format, 32), int(threads))
	return w, scheme, pp, ms
}

// checkMatVecAdd is the dense-order property: the program accumulated onto
// a bias is tensor.MatVecAdd on w, bit for bit.
func checkMatVecAdd(t *testing.T, label string, pp *PackedProgram, w *tensor.Matrix, seed uint64) {
	t.Helper()
	x := randVec(seed, w.Cols)
	acc := randVec(seed+13, w.Rows)
	ref := append([]float32(nil), acc...)
	if err := pp.RunAdd(acc, x, nil); err != nil {
		t.Fatalf("%s: RunAdd: %v", label, err)
	}
	tensor.MatVecAdd(ref, w, x)
	for i := range acc {
		if math.Float32bits(acc[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("%s row %d: packed RunAdd %v != tensor.MatVecAdd %v (fmt=%s %dx%d)",
				label, i, acc[i], ref[i], pp.Format, w.Rows, w.Cols)
		}
	}
}

// FuzzCompileProgram checks that lowering never panics, that the program it
// returns is tensor.MatVecAdd on the (BSP-projected) matrix bit for bit, and
// that its plan prices it: through Plan.Prices, and with the identities of
// the counted fields — ΣThreadMACs = TotalMACs, one count per modelled
// thread, GatherLoads + EliminatedLoads = MACs on the gathered formats.
func FuzzCompileProgram(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(8), uint8(0), int16(4), uint8(3), uint8(3), false)   // 0 rows
	f.Add(uint64(2), uint16(8), uint16(0), uint8(1), int16(4), uint8(2), uint8(2), false)   // 0 cols
	f.Add(uint64(3), uint16(16), uint16(1), uint8(2), int16(1), uint8(4), uint8(4), false)  // 1 col
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), true)   // 1 row
	f.Add(uint64(5), uint16(24), uint16(24), uint8(1), int16(-3), uint8(2), uint8(2), true) // bad threads
	f.Add(uint64(6), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), false) // ragged blocks
	f.Add(uint64(7), uint16(12), uint16(12), uint8(0), int16(64), uint8(1), uint8(1), true) // threads >> rows
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks uint8, allZero bool) {
		w, _, pp, ms := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if pp == nil {
			return
		}
		checkMatVecAdd(t, "fuzz", pp, w, seed+99)
		plan := &Plan{Matrices: []MatrixStats{ms}, Options: DefaultOptions(pp.Format, 32)}
		if !plan.Prices([]*PackedProgram{pp}) {
			t.Fatalf("fmt=%s: the plan does not price its own program", pp.Format)
		}
		if ms.MACs() != pp.TotalMACs() || len(ms.ThreadMACs) != max(int(threads), 1) {
			t.Fatalf("fmt=%s: %d thread counts totalling %d MACs, program runs %d (threads %d)",
				pp.Format, len(ms.ThreadMACs), ms.MACs(), pp.TotalMACs(), threads)
		}
		gathered := ms.GatherLoads + ms.EliminatedLoads
		if pp.Format == FormatDense && (gathered != 0 || ms.InputLoads != w.Cols) {
			t.Fatalf("dense: %d gathered loads, %d input loads (want 0, %d)", gathered, ms.InputLoads, w.Cols)
		}
		if pp.Format != FormatDense && gathered != ms.MACs() {
			t.Fatalf("fmt=%s: GatherLoads %d + EliminatedLoads %d != MACs %d",
				pp.Format, ms.GatherLoads, ms.EliminatedLoads, ms.MACs())
		}
	})
}

// FuzzPackProgram drives the lowering over adversarially-shaped matrices
// and checks the dense-order contract — accumulating the program into a
// biased y is tensor.MatVecAdd on the (BSP-projected) matrix bit for bit, in
// every format — that its sections rebuild a program that runs the same
// bits, and that Dense inverts the lowering: it returns the matrix, and
// lowering it again reproduces the sections at a storage width and tier the
// seed picks, with the weight bytes the plan prices.
func FuzzPackProgram(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(8), uint8(0), int16(4), uint8(3), uint8(3), false)
	f.Add(uint64(2), uint16(8), uint16(0), uint8(1), int16(4), uint8(2), uint8(2), false)
	f.Add(uint64(3), uint16(16), uint16(1), uint8(2), int16(1), uint8(4), uint8(4), false)
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), true)
	f.Add(uint64(5), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), false)
	f.Add(uint64(6), uint16(12), uint16(12), uint8(0), int16(64), uint8(1), uint8(1), true)
	f.Add(uint64(7), uint16(48), uint16(63), uint8(2), int16(4), uint8(3), uint8(7), false) // bspc, 8 column blocks per row group
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks uint8, allZero bool) {
		w, scheme, pp, _ := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if pp == nil {
			return
		}
		checkMatVecAdd(t, "fuzz", pp, w, seed+7)
		re, err := NewPackedFromSections(pp.Sections())
		if err != nil {
			t.Fatalf("sections do not load: %v", err)
		}
		checkMatVecAdd(t, "fuzz reloaded", re, w, seed+7)

		if !denseEqual(pp.Dense(), w) {
			t.Fatalf("Dense is not the lowered matrix (fmt=%s %dx%d)", pp.Format, w.Rows, w.Cols)
		}
		// A quantized program is lowered from the rounded matrix, as Compile
		// lowers one.
		bits := []int{0, 8, 12, 16}[seed%4]
		opt := DefaultOptions(pp.Format, 32)
		opt.Precision = []Precision{PrecisionExact, PrecisionFast}[seed/4%2]
		opt.QuantBits = bits
		src := MatrixSource{Name: "fuzz", W: w}
		if pp.Format == FormatBSPC {
			src.Scheme = &scheme
		}
		relower := func(m *tensor.Matrix) *PackedProgram {
			src.W = m
			packed, ms, err := LowerMatrix(src, opt, int(threads))
			if err != nil {
				t.Fatalf("re-lowering: %v", err)
			}
			if ms.WeightBytes != packed.WeightBytes() {
				t.Fatalf("q%d fmt=%s: WeightBytes %d != program's %d", bits, pp.Format, ms.WeightBytes, packed.WeightBytes())
			}
			return packed
		}
		rounded := w
		if bits != 0 {
			qm, err := quant.Quantize(w, bits, quant.PerRow)
			if err != nil {
				t.Fatal(err)
			}
			rounded = qm.Dequantize()
		}
		p := relower(rounded)
		if !denseEqual(p.Dense(), rounded) {
			t.Fatalf("q%d: Dense is not the lowered matrix", bits)
		}
		sameSections(t, fmt.Sprintf("fuzz q%d %s fmt=%s", bits, opt.Precision, pp.Format), relower(p.Dense()).Sections(), p.Sections())
	})
}

// FuzzRunBatch drives the batched executor over adversarially-shaped
// programs × batch widths (including B=1 and widths past the lane count)
// and checks the SpMM determinism contract: every lane of the RunBatch
// output panel must be byte-for-byte the per-stream serial Run output of
// that lane's vector.
func FuzzRunBatch(f *testing.F) {
	f.Add(uint64(1), uint16(16), uint16(12), uint8(0), int16(4), uint8(3), uint8(3), uint8(1), false)
	f.Add(uint64(2), uint16(8), uint16(8), uint8(1), int16(2), uint8(2), uint8(2), uint8(2), false)
	f.Add(uint64(3), uint16(24), uint16(16), uint8(2), int16(6), uint8(4), uint8(4), uint8(8), false)
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), uint8(16), true)
	f.Add(uint64(5), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), uint8(33), false)
	f.Add(uint64(6), uint16(0), uint16(8), uint8(0), int16(4), uint8(1), uint8(1), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks, batch uint8, allZero bool) {
		_, _, pp, _ := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if pp == nil {
			return
		}
		checkLanesMatchSerial(t, "fuzz", pp, seed, int(batch%24)+1)
	})
}

// FuzzPackQuant drives quantized storage over adversarially-shaped lowered
// programs × bit widths × scale schemes × batch widths and checks that
// quantizing never panics, that the program is the float program of its
// dequantized values bit for bit (values and output, serial and at the
// batch width), that accumulating it is tensor.MatVecAdd on the dequantized
// matrix, and that its sections round-trip to the same values — the codes
// Sections re-derives are the ones the values were dequantized from.
func FuzzPackQuant(f *testing.F) {
	f.Add(uint64(1), uint16(16), uint16(12), uint8(0), int16(4), uint8(3), uint8(3), uint8(0), uint8(1), false)
	f.Add(uint64(2), uint16(8), uint16(0), uint8(1), int16(4), uint8(2), uint8(2), uint8(1), uint8(2), false)
	f.Add(uint64(3), uint16(24), uint16(16), uint8(2), int16(6), uint8(4), uint8(4), uint8(2), uint8(8), false)
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), uint8(3), uint8(16), true)
	f.Add(uint64(5), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), uint8(4), uint8(33), false)
	f.Add(uint64(6), uint16(0), uint16(8), uint8(0), int16(4), uint8(1), uint8(1), uint8(5), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks, mode, batch uint8, allZero bool) {
		w, _, prog, _ := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if prog == nil {
			return
		}
		st := storage{bits: []int{8, 12, 16}[mode%3], scheme: []quant.Scheme{quant.PerRow, quant.PerTensor}[(mode/3)%2]}
		pq := packQuant(t, prog, st.bits, st.scheme)
		wd := dequantized(t, w, st)
		ref := withValues(prog, wd)
		label := fmt.Sprintf("fmt=%s bits=%d scheme=%v", prog.Format, st.bits, st.scheme)
		sameAsRef(t, label, pq, ref, seed+7, 1)
		sameAsRef(t, label, pq, ref, seed+8, int(batch%24)+1)

		x, bias := randVec(seed+9, w.Cols), randVec(seed+10, w.Rows)
		acc, want := append([]float32(nil), bias...), append([]float32(nil), bias...)
		if err := pq.RunAdd(acc, x, nil); err != nil {
			t.Fatal(err)
		}
		tensor.MatVecAdd(want, wd, x)
		for i := range acc {
			if acc[i] != want[i] {
				t.Fatalf("%s row %d: RunAdd %v vs tensor.MatVecAdd on the dequantized matrix %v", label, i, acc[i], want[i])
			}
		}

		re, err := NewPackedFromSections(pq.Sections())
		if err != nil {
			t.Fatalf("%s: sections do not load: %v", label, err)
		}
		sameAsRef(t, label+" reloaded", re, pq, seed+11, 1)
	})
}
