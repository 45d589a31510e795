//go:build unix && !purego

package tensor

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// Over-read tests. The assembly drivers take bare pointers and promise not to
// load past the slices the Go wrappers were given; mapped programs put weight
// sections at the very end of a file mapping, where one stray vector load is
// a SIGSEGV in production rather than a wrong number. Each test places an
// operand so its last element ends exactly on an inaccessible page.

// guarded copies src (at least one element) into fresh pages so that its
// last byte is the last byte before a PROT_NONE page.
func guarded[T any](t *testing.T, src []T) []T {
	t.Helper()
	page := syscall.Getpagesize()
	bytes := len(src) * int(unsafe.Sizeof(src[0]))
	dataPages := (bytes + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (dataPages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	if err := syscall.Mprotect(mem[dataPages*page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	dst := unsafe.Slice((*T)(unsafe.Pointer(&mem[dataPages*page-bytes])), len(src))
	copy(dst, src)
	return dst
}

// noFault runs fn and reports a memory fault as a test failure naming the
// case instead of crashing the test binary.
func noFault(t *testing.T, label string, fn func()) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: %v", label, r)
		}
	}()
	fn()
}

// guardWidths are segment widths around the four-column main loops and their
// scalar tails, plus the benchmark model's 48 and its neighbours.
var guardWidths = []int{1, 2, 3, 5, 47, 48, 49}

func guardRows(nr int) []int32 {
	rows := make([]int32, nr)
	for k := range rows {
		rows[k] = int32(k)
	}
	return rows
}

func TestDotSegF64NoOverRead(t *testing.T) {
	if !BatchSIMD() {
		t.Skip("no AVX2: the driver consumes nothing")
	}
	const nr = 16
	rows, y := guardRows(nr), make([]float32, nr)
	for _, nc := range guardWidths {
		vals, g := randVecF32(1, nr*nc), randVecF32(2, nc)
		want := make([]float32, nr)
		segF64Ref(vals, rows, g, want)
		for _, c := range []struct {
			name    string
			vals, g []float32
		}{
			{"vals", guarded(t, vals), g},
			{"g", vals, guarded(t, g)},
		} {
			clear(y)
			noFault(t, fmt.Sprintf("nc=%d %s on the guard page", nc, c.name), func() {
				if got := DotSegF64(c.vals, rows, c.g, y); got != nr {
					t.Errorf("nc=%d: consumed %d rows, want %d", nc, got, nr)
				}
			})
			for i := range y {
				if y[i] != want[i] {
					t.Errorf("nc=%d %s guarded: y[%d] = %v, want %v", nc, c.name, i, y[i], want[i])
				}
			}
		}
	}
}

// TestDotBatchChunk8NoOverRead holds the eight-lane panel kernels to the
// wrappers' contract: the panel is exactly (len(a)-1)·stride + 8 long.
func TestDotBatchChunk8NoOverRead(t *testing.T) {
	if !BatchSIMD() {
		t.Skip("no AVX2: the chunk kernels report unavailable")
	}
	var out0, out1 [8]float64
	for _, n := range guardWidths {
		for _, stride := range []int{8, 11} {
			a0, a1 := randVecF32(5, n), randVecF32(6, n)
			bp := randVecF32(7, (n-1)*stride+8)
			noFault(t, fmt.Sprintf("n=%d stride=%d rows on the guard page", n, stride), func() {
				dotBatchChunk8(guarded(t, a0), bp, stride, &out0)
				dotBatchPair8(guarded(t, a0), guarded(t, a1), bp, stride, &out0, &out1)
			})
			noFault(t, fmt.Sprintf("n=%d stride=%d panel on the guard page", n, stride), func() {
				gbp := guarded(t, bp)
				dotBatchChunk8(a0, gbp, stride, &out0)
				dotBatchPair8(a0, a1, gbp, stride, &out0, &out1)
			})
		}
	}
}

func randVecF32(seed uint64, n int) []float32 {
	rng := NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}
