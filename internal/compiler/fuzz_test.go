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
// thread counts) and compiles it. Rejection by CompileProgram is fine —
// prog is nil then; panics and wrong numbers are not.
func fuzzCompile(seed uint64, rows, cols uint16, formatSel uint8, threads int16,
	rowGroups, colBlocks uint8, allZero bool) (w *tensor.Matrix, scheme prune.BSP, prog *Program) {
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
	prog, _ = CompileProgram(src, DefaultOptions(format, 32), int(threads))
	return w, scheme, prog
}

// FuzzCompileProgram checks that compilation never panics and that the
// executed program matches the dense reference product.
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
		w, _, prog := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if prog == nil {
			return
		}
		x := randVec(seed+99, w.Cols)
		y := make([]float32, w.Rows)
		if _, err := prog.Execute(y, x); err != nil {
			t.Fatalf("execute: %v", err)
		}
		want := make([]float32, w.Rows)
		tensor.MatVec(want, w, x)
		for i := range y {
			if math.Abs(float64(y[i]-want[i])) > 1e-3 {
				t.Fatalf("row %d: program %v vs dense %v (fmt=%s, %dx%d)",
					i, y[i], want[i], prog.Format, w.Rows, w.Cols)
			}
		}
	})
}

// FuzzPackProgram drives the pack lowering over adversarially-shaped
// compiled programs and checks that packing never panics, that every
// successfully packed program executes byte-for-byte like the interpreter,
// that the static stats match the interpreter's dynamic count, the
// dense-order contract — accumulating the program into a biased y is
// tensor.MatVecAdd on the (BSP-projected) matrix bit for bit, in every
// format — and the identities of the stats LowerMatrix reads off its own
// lowering: ΣThreadMACs = TotalMACs, GatherLoads + EliminatedLoads = MACs on
// the gathered formats, WeightBytes = the program's.
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
		w, scheme, prog := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if prog == nil {
			return
		}
		pp, err := Pack(prog, 0)
		if err != nil {
			// A compiled program must always pack.
			t.Fatalf("pack rejected a compiled program: %v", err)
		}
		x := randVec(seed+7, w.Cols)
		want := make([]float32, w.Rows)
		wantStats, err := prog.Execute(want, x)
		if err != nil {
			t.Fatalf("interpreter: %v", err)
		}
		got := make([]float32, w.Rows)
		if err := pp.Run(got, x, nil); err != nil {
			t.Fatalf("packed: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d: packed %v != interpreter %v (fmt=%s)",
					i, got[i], want[i], prog.Format)
			}
		}
		equalStats(t, wantStats, pp.Stats(), "fuzz")

		bias := randVec(seed+13, w.Rows)
		acc, ref := append([]float32(nil), bias...), append([]float32(nil), bias...)
		if err := pp.RunAdd(acc, x, nil); err != nil {
			t.Fatalf("packed RunAdd: %v", err)
		}
		tensor.MatVecAdd(ref, w, x)
		for i := range acc {
			if acc[i] != ref[i] {
				t.Fatalf("row %d: packed RunAdd %v != tensor.MatVecAdd %v (fmt=%s %dx%d grid %dx%d)",
					i, acc[i], ref[i], prog.Format, w.Rows, w.Cols, scheme.NumRowGroups, scheme.NumColBlocks)
			}
		}

		// Dense inverts the lowering: it returns w, and lowering and packing
		// it again reproduces the sections byte for byte, at a storage width
		// and tier the seed picks. A quantized program is lowered from the
		// rounded matrix, as Compile lowers one.
		if !denseEqual(pp.Dense(), w) {
			t.Fatalf("Dense is not the lowered matrix (fmt=%s %dx%d)", prog.Format, w.Rows, w.Cols)
		}
		bits := []int{0, 8, 12, 16}[seed%4]
		opt := DefaultOptions(prog.Format, 32)
		opt.Precision = []Precision{PrecisionExact, PrecisionFast}[seed/4%2]
		src := MatrixSource{Name: "fuzz", W: w}
		if prog.Format == FormatBSPC {
			src.Scheme = &scheme
		}
		opt.QuantBits = bits
		// relower lowers m once and checks the identities of the stats read
		// off that lowering against the program it returns.
		relower := func(m *tensor.Matrix) *PackedProgram {
			src.W = m
			packed, ms, err := LowerMatrix(src, opt, int(threads))
			if err != nil {
				t.Fatalf("re-lowering: %v", err)
			}
			if ms.MACs() != packed.TotalMACs() {
				t.Fatalf("q%d fmt=%s: ΣThreadMACs %d != TotalMACs %d", bits, prog.Format, ms.MACs(), packed.TotalMACs())
			}
			if ms.WeightBytes != packed.WeightBytes() {
				t.Fatalf("q%d fmt=%s: WeightBytes %d != program's %d", bits, prog.Format, ms.WeightBytes, packed.WeightBytes())
			}
			gathered := ms.GatherLoads + ms.EliminatedLoads
			if prog.Format == FormatDense && (gathered != 0 || ms.InputLoads != w.Cols) {
				t.Fatalf("dense: %d gathered loads, %d input loads (want 0, %d)", gathered, ms.InputLoads, w.Cols)
			}
			if prog.Format != FormatDense && gathered != ms.MACs() {
				t.Fatalf("fmt=%s: GatherLoads %d + EliminatedLoads %d != MACs %d",
					prog.Format, ms.GatherLoads, ms.EliminatedLoads, ms.MACs())
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
		sameSections(t, fmt.Sprintf("fuzz q%d %s fmt=%s", bits, opt.Precision, prog.Format), relower(p.Dense()).Sections(), p.Sections())
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
		_, _, prog := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if prog == nil {
			return
		}
		pp, err := Pack(prog, 0)
		if err != nil {
			t.Fatalf("pack rejected a compiled program: %v", err)
		}
		checkLanesMatchSerial(t, "fuzz", pp, seed, int(batch%24)+1)
	})
}

// FuzzPackQuant drives the quantized pack lowering over adversarially-shaped
// compiled programs × bit widths × scale schemes × batch widths and checks
// that quantized packing never panics, that the program is Pack of its
// dequantized values bit for bit (values and output, serial and at the batch
// width), that accumulating it is tensor.MatVecAdd on the dequantized
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
		w, _, prog := fuzzCompile(seed, rows, cols, formatSel, threads, rowGroups, colBlocks, allZero)
		if prog == nil {
			return
		}
		st := storage{bits: []int{8, 12, 16}[mode%3], scheme: []quant.Scheme{quant.PerRow, quant.PerTensor}[(mode/3)%2]}
		pq, err := PackQuant(prog, st.bits, st.scheme)
		if err != nil {
			t.Fatalf("PackQuant rejected a compiled program: %v", err)
		}
		wd := dequantized(t, w, st)
		ref, err := Pack(withValues(prog, wd), 0)
		if err != nil {
			t.Fatal(err)
		}
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
