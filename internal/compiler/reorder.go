package compiler

import (
	"sort"

	"rtmobile/internal/tensor"
)

// Matrix reorder (Section IV-B(a)). The modelled target's threads execute
// contiguous row chunks; without reordering, rows with very different
// nonzero counts land in the same chunk and the busiest thread gates the
// kernel. The pass groups rows with the same (or similar) computation
// pattern: rows are sorted by their nonzero-column signature, then by
// descending work, and distributed so chunk workloads equalize. The host
// runs every program as one segment list; the chunks exist only in the
// plan's count (codegen.go).

// rowPattern summarizes one row for grouping: its nonzero count and a
// signature hash of its nonzero column set. Rows with equal signatures have
// identical patterns and become candidates for redundant-load elimination.
type rowPattern struct {
	index int
	nnz   int
	sig   uint64
}

// rowPatterns extracts per-row patterns from a matrix.
func rowPatterns(w *tensor.Matrix) []rowPattern {
	pats := make([]rowPattern, w.Rows)
	for i := 0; i < w.Rows; i++ {
		p := rowPattern{index: i}
		var h uint64 = 1469598103934665603 // FNV offset basis
		for j, v := range w.Row(i) {
			if v != 0 {
				p.nnz++
				h ^= uint64(j)
				h *= 1099511628211 // FNV prime
			}
		}
		p.sig = h
		pats[i] = p
	}
	return pats
}

// Reorder returns a row permutation (storage order → original index) that
// groups equal-signature rows together and orders groups by descending
// work. Deterministic: ties break on original index.
func Reorder(w *tensor.Matrix) []int {
	pats := rowPatterns(w)
	sort.SliceStable(pats, func(a, b int) bool {
		pa, pb := pats[a], pats[b]
		if pa.nnz != pb.nnz {
			return pa.nnz > pb.nnz
		}
		if pa.sig != pb.sig {
			return pa.sig < pb.sig
		}
		return pa.index < pb.index
	})
	perm := make([]int, len(pats))
	for i, p := range pats {
		perm[i] = p.index
	}
	return perm
}

// assignThreads cuts rows (in the given storage order) into contiguous
// per-thread chunks: chunk t is order[cut[t]:cut[t+1]], len(cut) is the
// thread count (at least 1) plus one. With balance=true it uses work-aware
// boundaries (each chunk targets an equal share of total work, which is
// what the reorder pass enables); with balance=false it splits by row
// count only, modeling the untuned kernel.
func assignThreads(order []int, work []int, threads int, balance bool) (cut []int) {
	threads = max(threads, 1)
	n := len(order)
	cut = make([]int, threads+1)
	if !balance {
		for t := range cut {
			cut[t] = t * n / threads
		}
		return cut
	}
	total := 0
	for _, r := range order {
		total += work[r]
	}
	target := float64(total) / float64(threads)
	t := 0
	acc := 0
	for i, r := range order {
		// Advance to the next thread when this one has met its share and
		// threads remain.
		if t < threads-1 && float64(acc) >= target*float64(t+1) {
			t++
			cut[t] = i
		}
		acc += work[r]
	}
	for t++; t <= threads; t++ {
		cut[t] = n
	}
	return cut
}
