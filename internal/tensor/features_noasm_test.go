//go:build !amd64 || purego

package tensor

import "testing"

// Under -tags=purego (or without amd64 assembly) the detected feature set
// must be all-false and every dispatch gate closed, so the portable
// fallbacks carry both tiers.

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
	a := []float32{1, 2}
	var out8 [8]float32
	if _, ok := dotFast(a, a); ok {
		t.Error("dotFast reported available without assembly")
	}
	if dotSegFast(a, []int32{0}, 2, a, a) != 0 {
		t.Error("dotSegFast consumed rows without assembly")
	}
	if dotSegF64(a, []int32{0}, 2, a, a) != 0 {
		t.Error("dotSegF64 consumed rows without assembly")
	}
	if dotBatchChunk8Fast(a, a, 1, &out8) {
		t.Error("dotBatchChunk8Fast reported available without assembly")
	}
}
