package compiler

import "fmt"

// Precision tiers. The packed backend's default contract is bit-exactness:
// every kernel variant (SIMD path, worker count, batch width) reproduces
// the scalar float64-accumulation reference to the bit.
// That contract pins the inner loops to ordered float64 chains and keeps
// FMA off the table. PrecisionFast relaxes it per deployment: kernels may
// accumulate in float32 with fused multiply-adds and split accumulator
// chains (internal/tensor's DotFast family), trading bit-equality for a
// tolerance contract — outputs stay within tensor.FastULPBound /
// tensor.FastDotBound of the exact tier, verified by the equivalence
// suites and, end to end, by the engine's PER guardrail. The exact tier
// remains the oracle; fast is opt-in and recorded on every program, plan,
// and bundle so a cached artifact can never silently select the wrong
// kernel family.
type Precision uint8

const (
	// PrecisionExact is the bit-exact tier (the zero value, so every
	// existing call site keeps today's behavior).
	PrecisionExact Precision = iota
	// PrecisionFast is the relaxed tier: FMA + float32 accumulation,
	// tolerance-verified against the exact oracle.
	PrecisionFast
)

// PrecisionValid reports whether p names an implemented tier.
func PrecisionValid(p Precision) bool {
	return p == PrecisionExact || p == PrecisionFast
}

// String implements fmt.Stringer with the CLI's -precision spellings.
func (p Precision) String() string {
	switch p {
	case PrecisionExact:
		return "exact"
	case PrecisionFast:
		return "fast"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// ParsePrecision maps a -precision flag value onto a tier. The empty
// string selects the exact default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "exact":
		return PrecisionExact, nil
	case "fast":
		return PrecisionFast, nil
	}
	return 0, fmt.Errorf("compiler: unknown precision %q (want exact or fast)", s)
}
