package compiler

import (
	"math"
	"testing"

	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// FuzzCompileProgram lowers adversarially-shaped matrices (0 rows, 1
// column, all-zero contents, ragged block grids, hostile thread counts)
// through every format and checks three properties: compilation never
// panics, the executed program matches the dense reference product, and
// the parallel executor is bit-identical to the serial one.
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
		forceParallel(t)
		r := int(rows % 64)
		c := int(cols % 64)
		w := tensor.NewMatrix(r, c)
		if !allZero {
			w.RandNormal(tensor.NewRNG(seed), 1)
		}
		scheme := prune.BSP{
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

		prog, err := CompileProgram(src, DefaultOptions(format, 32), int(threads))
		if err != nil {
			// Rejection is fine; panics and wrong numbers are not.
			return
		}
		x := randVec(seed+99, c)
		y := make([]float32, r)
		if _, err := prog.Execute(y, x); err != nil {
			t.Fatalf("serial execute: %v", err)
		}
		want := make([]float32, r)
		tensor.MatVec(want, w, x)
		for i := range y {
			if math.Abs(float64(y[i]-want[i])) > 1e-3 {
				t.Fatalf("row %d: program %v vs dense %v (fmt=%s, %dx%d)",
					i, y[i], want[i], format, r, c)
			}
		}

		pool := parallel.NewPool(int(seed%7) + 2)
		defer pool.Close()
		yp := make([]float32, r)
		if _, err := prog.ExecuteParallel(yp, x, pool); err != nil {
			t.Fatalf("parallel execute: %v", err)
		}
		for i := range yp {
			if yp[i] != y[i] {
				t.Fatalf("row %d: parallel %v != serial %v", i, yp[i], y[i])
			}
		}
	})
}

// FuzzPackProgram drives the pack lowering over adversarially-shaped
// compiled programs and checks that packing never panics, that every
// successfully packed program executes byte-for-byte like the interpreter
// (serial and parallel, at arbitrary unroll factors), that the static
// stats match the interpreter's dynamic count, and the dense-order
// contract: accumulating the program into a biased y is tensor.MatVecAdd on
// the (BSP-projected) matrix bit for bit, in every format.
func FuzzPackProgram(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(8), uint8(0), int16(4), uint8(3), uint8(3), uint8(4), false)
	f.Add(uint64(2), uint16(8), uint16(0), uint8(1), int16(4), uint8(2), uint8(2), uint8(1), false)
	f.Add(uint64(3), uint16(16), uint16(1), uint8(2), int16(1), uint8(4), uint8(4), uint8(8), false)
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), uint8(0), true)
	f.Add(uint64(5), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), uint8(2), false)
	f.Add(uint64(6), uint16(12), uint16(12), uint8(0), int16(64), uint8(1), uint8(1), uint8(255), true)
	f.Add(uint64(7), uint16(48), uint16(63), uint8(2), int16(4), uint8(3), uint8(7), uint8(4), false) // bspc, 8 column blocks per row group
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks, unroll uint8, allZero bool) {
		forceParallel(t)
		r := int(rows % 64)
		c := int(cols % 64)
		w := tensor.NewMatrix(r, c)
		if !allZero {
			w.RandNormal(tensor.NewRNG(seed), 1)
		}
		scheme := prune.BSP{
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

		prog, err := CompileProgram(src, DefaultOptions(format, 32), int(threads))
		if err != nil {
			return
		}
		pp, err := Pack(prog, int(unroll))
		if err != nil {
			// A compiled program must always pack.
			t.Fatalf("pack rejected a compiled program: %v", err)
		}
		x := randVec(seed+7, c)
		want := make([]float32, r)
		wantStats, err := prog.Execute(want, x)
		if err != nil {
			t.Fatalf("interpreter: %v", err)
		}
		got := make([]float32, r)
		gotStats, err := pp.Execute(got, x)
		if err != nil {
			t.Fatalf("packed: %v", err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d: packed %v != interpreter %v (fmt=%s unroll=%d)",
					i, got[i], want[i], format, unroll)
			}
		}
		equalStats(t, wantStats, gotStats, "fuzz")

		bias := randVec(seed+13, r)
		acc, ref := append([]float32(nil), bias...), append([]float32(nil), bias...)
		if err := pp.RunAdd(acc, x, nil); err != nil {
			t.Fatalf("packed RunAdd: %v", err)
		}
		tensor.MatVecAdd(ref, w, x)
		for i := range acc {
			if acc[i] != ref[i] {
				t.Fatalf("row %d: packed RunAdd %v != tensor.MatVecAdd %v (fmt=%s %dx%d grid %dx%d)",
					i, acc[i], ref[i], format, r, c, scheme.NumRowGroups, scheme.NumColBlocks)
			}
		}

		pool := parallel.NewPool(int(seed%5) + 2)
		defer pool.Close()
		gp := make([]float32, r)
		if _, err := pp.ExecuteParallel(gp, x, pool); err != nil {
			t.Fatalf("packed parallel: %v", err)
		}
		for i := range gp {
			if gp[i] != want[i] {
				t.Fatalf("row %d: packed parallel %v != interpreter %v", i, gp[i], want[i])
			}
		}
	})
}

// FuzzRunBatch drives the batched executor over adversarially-shaped
// programs × batch widths (including B=1 and widths past the lane count)
// and checks the SpMM determinism contract: every lane of the RunBatch and
// RunBatchParallel output panels must be byte-for-byte the per-stream
// serial Run output of that lane's vector.
func FuzzRunBatch(f *testing.F) {
	f.Add(uint64(1), uint16(16), uint16(12), uint8(0), int16(4), uint8(3), uint8(3), uint8(4), uint8(1), false)
	f.Add(uint64(2), uint16(8), uint16(8), uint8(1), int16(2), uint8(2), uint8(2), uint8(1), uint8(2), false)
	f.Add(uint64(3), uint16(24), uint16(16), uint8(2), int16(6), uint8(4), uint8(4), uint8(8), uint8(8), false)
	f.Add(uint64(4), uint16(1), uint16(16), uint8(2), int16(8), uint8(4), uint8(4), uint8(0), uint8(16), true)
	f.Add(uint64(5), uint16(13), uint16(17), uint8(2), int16(5), uint8(5), uint8(7), uint8(2), uint8(33), false)
	f.Add(uint64(6), uint16(0), uint16(8), uint8(0), int16(4), uint8(1), uint8(1), uint8(255), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, formatSel uint8,
		threads int16, rowGroups, colBlocks, unroll, batch uint8, allZero bool) {
		forceParallel(t)
		r := int(rows % 64)
		c := int(cols % 64)
		bw := int(batch%24) + 1
		w := tensor.NewMatrix(r, c)
		if !allZero {
			w.RandNormal(tensor.NewRNG(seed), 1)
		}
		scheme := prune.BSP{
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

		prog, err := CompileProgram(src, DefaultOptions(format, 32), int(threads))
		if err != nil {
			return
		}
		pp, err := Pack(prog, int(unroll))
		if err != nil {
			t.Fatalf("pack rejected a compiled program: %v", err)
		}
		scratch := pp.NewScratch()
		streams := make([][]float32, bw)
		want := make([][]float32, bw)
		xp := make([]float32, c*bw)
		for l := range streams {
			streams[l] = randVec(seed*31+uint64(l)+7, c)
			want[l] = make([]float32, r)
			if err := pp.Run(want[l], streams[l], scratch); err != nil {
				t.Fatalf("serial lane %d: %v", l, err)
			}
			for i, v := range streams[l] {
				xp[i*bw+l] = v
			}
		}
		yp := make([]float32, r*bw)
		if err := pp.RunBatch(yp, xp, bw, scratch); err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		for l := 0; l < bw; l++ {
			for i := 0; i < r; i++ {
				if yp[i*bw+l] != want[l][i] {
					t.Fatalf("lane %d row %d: batched %v != serial %v (fmt=%s unroll=%d bw=%d)",
						l, i, yp[i*bw+l], want[l][i], format, unroll, bw)
				}
			}
		}

		pool := parallel.NewPool(int(seed%5) + 2)
		defer pool.Close()
		gp := make([]float32, r*bw)
		if err := pp.RunBatchParallel(gp, xp, bw, pool, scratch); err != nil {
			t.Fatalf("RunBatchParallel: %v", err)
		}
		for i := range gp {
			if gp[i] != yp[i] {
				t.Fatalf("panel index %d: parallel %v != serial %v", i, gp[i], yp[i])
			}
		}
	})
}
