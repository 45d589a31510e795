//go:build !amd64 || purego

package tensor

// Fast activation dispatch without amd64 assembly (or under
// -tags=purego): every entry consumes nothing and the portable scalar
// polynomials in act.go define the family's semantics.

func tanhFastVec(dst, src []float32) int {
	_, _ = dst, src
	return 0
}

func sigmoidFastVec(dst, src []float32) int {
	_, _ = dst, src
	return 0
}

func gruEpilogueFastVec(h, ax, ah []float32) int {
	_, _, _ = h, ax, ah
	return 0
}

func expSubSumFastVec(dst, src []float32, mx float32) (float32, int) {
	_, _, _ = dst, src, mx
	return 0, 0
}
