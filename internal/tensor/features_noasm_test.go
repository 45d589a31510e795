//go:build !amd64 || purego

package tensor

import "testing"

// Under -tags=purego (or without amd64 assembly) the detected feature set
// must be all-false and every dispatch gate closed, so the portable
// fallbacks carry the exact kernels and the fast epilogue family alike.

func TestFeaturesAllFalsePurego(t *testing.T) {
	if f := CPUFeatures(); f != (Features{}) {
		t.Errorf("CPUFeatures() = %+v, want zero value", f)
	}
	if BatchSIMD() || FastSIMD() || FastSIMD512() {
		t.Errorf("dispatch gates open without assembly: batch=%v fast=%v fast512=%v",
			BatchSIMD(), FastSIMD(), FastSIMD512())
	}
}

func TestKernelSetPortablePurego(t *testing.T) {
	const want = "exact-serial-f32=portable exact-panel=portable fast=portable"
	if got := KernelSet().String(); got != want {
		t.Errorf("KernelSet() = %q, want %q", got, want)
	}
}

func TestFastFallbacksReportUnavailable(t *testing.T) {
	a := make([]float32, 8)
	if dotSegF64(a[:2], []int32{0}, 2, a[:2], a[:2]) != 0 {
		t.Error("dotSegF64 consumed rows without assembly")
	}
	if tanhFastVec(a, a) != 0 || sigmoidFastVec(a, a) != 0 {
		t.Error("the fast activation kernels consumed elements without assembly")
	}
}
