package tensor

import "testing"

// The feature set is detected once; these tests pin the derived dispatch
// gates to it so no kernel family can drift onto its own CPUID logic again.

func TestFeatureGatesConsistent(t *testing.T) {
	f := CPUFeatures()
	if got, want := BatchSIMD(), f.AVX2; got != want {
		t.Errorf("BatchSIMD() = %v, want AVX2 bit %v", got, want)
	}
	if got, want := FastSIMD(), f.AVX2 && f.FMA; got != want {
		t.Errorf("FastSIMD() = %v, want AVX2&&FMA %v", got, want)
	}
	if got, want := FastSIMD512(), FastSIMD() && f.AVX512F && f.AVX512VL; got != want {
		t.Errorf("FastSIMD512() = %v, want %v", got, want)
	}
	if FastSIMD512() && !FastSIMD() {
		t.Error("FastSIMD512 implies FastSIMD")
	}
}

func TestFeatureBitsImplyBaseState(t *testing.T) {
	f := CPUFeatures()
	// AVX-512 bits are only set when the narrower state is also usable;
	// a CPU/OS combination reporting zmm without ymm would be detection
	// breakage, not hardware.
	if (f.AVX512F || f.AVX512VL) && !f.AVX2 {
		t.Errorf("AVX-512 bits set without AVX2: %+v", f)
	}
}

// TestKernelSetFollowsGates: the summary names exactly what the dispatch
// gates select, and reads "portable" throughout when none is open.
func TestKernelSetFollowsGates(t *testing.T) {
	k := KernelSet()
	exact := map[bool]string{true: "avx2", false: "portable"}[BatchSIMD()]
	fast := map[bool]string{true: "avx2+fma", false: "portable"}[FastSIMD()]
	if want := (Kernels{ExactSerial: exact, ExactPanel: exact, Fast: fast}); k != want {
		t.Errorf("KernelSet() = %+v, want %+v", k, want)
	}
	// The serial driver really is what the summary says it is.
	rows, g, y := make([]int32, 8), []float32{1}, make([]float32, 1)
	if got := DotSegF64(make([]float32, 8), rows, g, y) == 8; got != (k.ExactSerial == "avx2") {
		t.Errorf("DotSegF64 consumed a group = %v with exact-serial kernels %q", got, k.ExactSerial)
	}
	if want := "exact-serial-f32=" + exact + " exact-panel=" + exact + " fast=" + fast; k.String() != want {
		t.Errorf("String() = %q, want %q", k.String(), want)
	}
}
