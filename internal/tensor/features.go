package tensor

// Unified CPU feature detection. Every SIMD dispatch in this package gates
// on the single feature set detected here (satisfying one CPUID probe at
// init), instead of scattering OSXSAVE/XGETBV/CPUID sequences per kernel
// family. A feature bit is set only when it is actually usable: the CPU
// advertises it AND the OS has enabled the matching register state
// (ymm for AVX2/FMA, opmask+zmm for AVX-512). Under -tags=purego or on
// non-amd64 builds the set is all-false and every kernel takes its portable
// fallback.

// Features is the usable-instruction-set summary the kernels dispatch on.
type Features struct {
	AVX2     bool // AVX2 with OS ymm state — the exact-tier batch kernels
	FMA      bool // FMA3 — required (with AVX2) for the fast tier
	AVX512F  bool // AVX-512 foundation with OS zmm/opmask state
	AVX512VL bool // AVX-512 vector-length extensions
}

// CPUFeatures returns the detected feature set. All-false under
// -tags=purego or without amd64 assembly.
func CPUFeatures() Features { return feat }

// Derived dispatch gates, computed once at init.
var (
	fastSIMD    = feat.AVX2 && feat.FMA
	fastSIMD512 = feat.AVX2 && feat.FMA && feat.AVX512F && feat.AVX512VL
)

// BatchSIMD reports whether the exact tier's vector kernels are active: the
// eight-row segment driver of the serial path (DotSegF64) and the eight-lane
// panel kernels — both AVX2 without FMA, so both on the one gate (AVX2 on
// this build/CPU; always false under -tags=purego).
func BatchSIMD() bool { return feat.AVX2 }

// FastSIMD reports whether the relaxed-precision fast kernel tier has a
// vector implementation on this build/CPU (AVX2 + FMA). When false the
// fast tier still works — the portable f32-accumulation fallbacks define
// its semantics — it just is not faster than the exact tier.
func FastSIMD() bool { return fastSIMD }

// FastSIMD512 reports whether the AVX-512 variants of the fast kernels are
// active (implies FastSIMD).
func FastSIMD512() bool { return fastSIMD512 }

// Kernels names the instruction set each kernel family dispatches to on this
// build and CPU: "avx2", "avx2+fma", "avx512" or "portable". A purego build
// or a pre-AVX2 host reads "portable" throughout and runs the exact serial
// stream about half as fast, which nothing else would say.
type Kernels struct {
	ExactSerial string `json:"exact_serial_f32"` // DotSegF64, the serial f32 segment driver
	ExactPanel  string `json:"exact_panel"`      // eight-lane exact panel kernels
	Fast        string `json:"fast"`             // fast-tier dots, drivers and epilogue
}

// KernelSet reports the active kernels, derived from the same gates the
// dispatch sites test.
func KernelSet() Kernels {
	exact, fast := "portable", "portable"
	if feat.AVX2 {
		exact = "avx2"
	}
	switch {
	case fastSIMD512:
		fast = "avx512"
	case fastSIMD:
		fast = "avx2+fma"
	}
	return Kernels{ExactSerial: exact, ExactPanel: exact, Fast: fast}
}

// String is the one-line form run -stats and /statz print.
func (k Kernels) String() string {
	return "exact-serial-f32=" + k.ExactSerial + " exact-panel=" + k.ExactPanel + " fast=" + k.Fast
}
