package tensor

import (
	"math"
	"testing"
)

// Activation-kernel suite. Three layers of contract: (1) the exact kernels
// are bit-pinned — Sigmoid32/Tanh32/Sigmoid/Tanh/GRUEpilogue must reproduce
// the historical scalar formulas byte-for-byte, including the saturated
// short-circuit branches; (2) the fast family is tolerance-bound — every
// output within FastActClose of the exact oracle across vector bodies and
// scalar tails; (3) the fast kernels keep the qualitative shape of the
// functions they approximate (monotone, odd, saturating, NaN-transparent).

// actSweep returns a dense linspace over [lo, hi] plus the endpoints.
func actSweep(lo, hi float32, n int) []float32 {
	xs := make([]float32, 0, n+2)
	for i := 0; i <= n; i++ {
		xs = append(xs, lo+(hi-lo)*float32(i)/float32(n))
	}
	return append(xs, lo, hi)
}

// actSpecials are the non-finite and signed-zero inputs every activation
// path must handle.
var actSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()),
	0, float32(math.Copysign(0, -1)),
	math.MaxFloat32, -math.MaxFloat32,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
}

// rawSigmoid64 is the pre-saturation-fix Sigmoid body: the bit oracle for
// the vector kernel's fast-path branches.
func rawSigmoid64(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// rawTanh64 is the pre-saturation-fix Tanh body.
func rawTanh64(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

func bitsEq(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) ||
		(a != a && b != b) // any NaN payload matches any NaN
}

func TestSigmoidBitIdenticalToRawFormula(t *testing.T) {
	xs := actSweep(-120, 120, 400000)
	xs = append(xs, actSweep(17.9, 18.1, 1000)...)     // positive saturation boundary
	xs = append(xs, actSweep(-104.1, -103.9, 1000)...) // negative saturation boundary
	xs = append(xs, actSpecials...)
	got := make([]float32, len(xs))
	Sigmoid(got, xs)
	for i, x := range xs {
		if want := rawSigmoid64(x); !bitsEq(got[i], want) {
			t.Fatalf("Sigmoid(%g) = %b, raw formula %b", x, got[i], want)
		}
	}
}

func TestTanhBitIdenticalToRawFormula(t *testing.T) {
	xs := actSweep(-30, 30, 400000)
	xs = append(xs, actSweep(9.4, 9.6, 1000)...)
	xs = append(xs, actSweep(-9.6, -9.4, 1000)...)
	xs = append(xs, actSpecials...)
	got := make([]float32, len(xs))
	Tanh(got, xs)
	for i, x := range xs {
		if want := rawTanh64(x); !bitsEq(got[i], want) {
			t.Fatalf("Tanh(%g) = %b, raw formula %b", x, got[i], want)
		}
	}
}

// TestGateScalarsBitPin pins the exact-tier scalar gates to the historical
// nn-package bodies (clamp bounds included) they were moved from.
func TestGateScalarsBitPin(t *testing.T) {
	xs := actSweep(-40, 40, 400000)
	xs = append(xs, 30, -30, 15, -15, 30.0000019, -30.0000019)
	xs = append(xs, actSpecials...)
	for _, x := range xs {
		var wantS float32
		switch {
		case x > 30:
			wantS = 1
		case x < -30:
			wantS = 0
		default:
			wantS = float32(1 / (1 + math.Exp(-float64(x))))
		}
		if got := Sigmoid32(x); !bitsEq(got, wantS) {
			t.Fatalf("Sigmoid32(%g) = %b, historical body %b", x, got, wantS)
		}
		var wantT float32
		switch {
		case x > 15:
			wantT = 1
		case x < -15:
			wantT = -1
		default:
			e2 := math.Exp(2 * float64(x))
			wantT = float32((e2 - 1) / (e2 + 1))
		}
		if got := Tanh32(x); !bitsEq(got, wantT) {
			t.Fatalf("Tanh32(%g) = %b, historical body %b", x, got, wantT)
		}
	}
}

// gruGateVectors builds a random GRU epilogue problem: state in (−1, 1)
// like a real bounded GRU, gate pre-activation halves within ±scale.
func gruGateVectors(n int, scale float32, seed uint64) (h, ax, ah []float32) {
	rng := NewRNG(seed)
	h = make([]float32, n)
	ax = make([]float32, 3*n)
	ah = make([]float32, 3*n)
	for i := range h {
		h[i] = 2*rng.Float32() - 1
	}
	for i := range ax {
		ax[i] = scale * (2*rng.Float32() - 1)
		ah[i] = scale * (2*rng.Float32() - 1)
	}
	return h, ax, ah
}

// gruEpilogueUnfused is the pre-fusion reference: the exact gate math in
// the separate-output-buffer shape the nn steppers used to run.
func gruEpilogueUnfused(h, ax, ah []float32) {
	n := len(h)
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		z := Sigmoid32(ax[i] + ah[i])
		r := Sigmoid32(ax[n+i] + ah[n+i])
		c := Tanh32(ax[2*n+i] + r*ah[2*n+i])
		out[i] = (1-z)*h[i] + z*c
	}
	copy(h, out)
}

func TestGRUEpilogueBitIdenticalToUnfused(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 16, 33, 100, 1024} {
		h, ax, ah := gruGateVectors(n, 12, 0x6E90+uint64(n))
		want := CloneVec(h)
		gruEpilogueUnfused(want, ax, ah)
		GRUEpilogue(h, ax, ah)
		for i := range h {
			if !bitsEq(h[i], want[i]) {
				t.Fatalf("n=%d: GRUEpilogue h[%d] = %b, unfused reference %b", n, i, h[i], want[i])
			}
		}
	}
}

func TestGRUEpilogueShapePanics(t *testing.T) {
	for _, fn := range []func(h, ax, ah []float32){GRUEpilogue, GRUEpilogueFast} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on short gate vectors")
				}
			}()
			fn(make([]float32, 4), make([]float32, 11), make([]float32, 12))
		}()
	}
}

func TestSigmoidFastWithinTolerance(t *testing.T) {
	xs := actSweep(-40, 40, 200000)
	xs = append(xs, actSpecials[:2]...) // ±Inf saturate; NaN has its own test
	want := make([]float32, len(xs))
	Sigmoid(want, xs)
	got := make([]float32, len(xs))
	SigmoidFast(got, xs)
	for i, x := range xs {
		if !FastActClose(got[i], want[i], FastSigmoidTol) {
			t.Fatalf("SigmoidFast(%g) = %g, exact %g (ulp=%d)",
				x, got[i], want[i], ULPDiff32(got[i], want[i]))
		}
	}
}

func TestTanhFastWithinTolerance(t *testing.T) {
	xs := actSweep(-40, 40, 200000)
	xs = append(xs, actSpecials[:2]...)
	want := make([]float32, len(xs))
	Tanh(want, xs)
	got := make([]float32, len(xs))
	TanhFast(got, xs)
	for i, x := range xs {
		if !FastActClose(got[i], want[i], FastTanhTol) {
			t.Fatalf("TanhFast(%g) = %g, exact %g (ulp=%d)",
				x, got[i], want[i], ULPDiff32(got[i], want[i]))
		}
	}
}

// TestFastScalarTailMatchesVectorBody runs odd lengths so the same values
// pass through both the 8-wide body and the scalar tail, and checks the two
// stay mutually within the activation tolerance (they evaluate the same
// polynomials with different rounding fusions).
func TestFastScalarTailMatchesVectorBody(t *testing.T) {
	const n = 8
	xs := actSweep(-10, 10, n-1)[:n] // n values
	head := make([]float32, n)       // all through the vector body (if present)
	SigmoidFast(head, xs)
	for i, x := range xs {
		if got := sigmoidFastScalar(x); !FastActClose(got, head[i], FastSigmoidTol) {
			t.Fatalf("sigmoid scalar/vector mismatch at %g: %g vs %g", x, got, head[i])
		}
	}
	TanhFast(head, xs)
	for i, x := range xs {
		if got := tanhFastScalar(x); !FastActClose(got, head[i], FastTanhTol) {
			t.Fatalf("tanh scalar/vector mismatch at %g: %g vs %g", x, got, head[i])
		}
	}
}

func TestTanhFastOddSymmetry(t *testing.T) {
	xs := actSweep(-12, 12, 4096)
	neg := make([]float32, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	a := make([]float32, len(xs))
	b := make([]float32, len(xs))
	TanhFast(a, xs)
	TanhFast(b, neg)
	for i := range xs {
		if math.Float32bits(a[i]) != math.Float32bits(-b[i]) {
			t.Fatalf("tanhFast(%g) = %g but -tanhFast(%g) = %g: not exactly odd",
				xs[i], a[i], neg[i], -b[i])
		}
	}
}

func TestFastActMonotone(t *testing.T) {
	// The polynomial evaluations may wiggle locally — in the sigmoid tail
	// the ½·tanh+½ form quantizes the output to ULPs of ½, far coarser than
	// the values themselves — so the contract is monotone up to the
	// kernel's absolute tolerance on sorted inputs. A bigger dip would also
	// break the tolerance bound against the strictly monotone exact oracle.
	xs := actSweep(-16, 16, 100000) // sorted prefix, unsorted tail dropped
	xs = xs[:len(xs)-2]
	sig := make([]float32, len(xs))
	tan := make([]float32, len(xs))
	SigmoidFast(sig, xs)
	TanhFast(tan, xs)
	for i := 1; i < len(xs); i++ {
		if float64(sig[i]) < float64(sig[i-1])-FastSigmoidTol {
			t.Fatalf("SigmoidFast not monotone at x=%g: %g < %g", xs[i], sig[i], sig[i-1])
		}
		if float64(tan[i]) < float64(tan[i-1])-FastTanhTol {
			t.Fatalf("TanhFast not monotone at x=%g: %g < %g", xs[i], tan[i], tan[i-1])
		}
	}
}

func TestFastActSaturation(t *testing.T) {
	inf := float32(math.Inf(1))
	big := []float32{inf, -inf, 500, -500, 64, -64, 1e20, -1e20}
	sig := make([]float32, len(big))
	tan := make([]float32, len(big))
	SigmoidFast(sig, big)
	TanhFast(tan, big)
	for i, x := range big {
		wantS, wantT := float32(1), float32(1)
		if x < 0 {
			wantS, wantT = 0, -1
		}
		if !FastActClose(sig[i], wantS, FastSigmoidTol) {
			t.Fatalf("SigmoidFast(%g) = %g, want saturated %g", x, sig[i], wantS)
		}
		if !FastActClose(tan[i], wantT, FastTanhTol) {
			t.Fatalf("TanhFast(%g) = %g, want saturated %g", x, tan[i], wantT)
		}
	}
}

func TestFastActNaNPropagation(t *testing.T) {
	nan := float32(math.NaN())
	// NaN at vector-body and scalar-tail positions.
	xs := make([]float32, 19)
	for i := range xs {
		xs[i] = float32(i)
	}
	for _, pos := range []int{0, 3, 7, 8, 15, 16, 18} {
		in := CloneVec(xs)
		in[pos] = nan
		sig := make([]float32, len(in))
		tan := make([]float32, len(in))
		SigmoidFast(sig, in)
		TanhFast(tan, in)
		if sig[pos] == sig[pos] || tan[pos] == tan[pos] {
			t.Fatalf("pos %d: NaN input did not propagate (sig=%g tan=%g)", pos, sig[pos], tan[pos])
		}
		for i := range in {
			if i != pos && (sig[i] != sig[i] || tan[i] != tan[i]) {
				t.Fatalf("pos %d: NaN leaked into lane %d", pos, i)
			}
		}
	}
	// The fused epilogue: NaN in any of the six gate inputs or the state
	// poisons exactly that element.
	n := 19
	h, ax, ah := gruGateVectors(n, 4, 0xABCD)
	for _, gate := range []int{0, 1, 2} {
		hh := CloneVec(h)
		axx := CloneVec(ax)
		axx[gate*n+5] = nan
		GRUEpilogueFast(hh, axx, ah)
		if hh[5] == hh[5] {
			t.Fatalf("gate %d: NaN did not propagate into h'", gate)
		}
		for i := range hh {
			if i != 5 && hh[i] != hh[i] {
				t.Fatalf("gate %d: NaN leaked into element %d", gate, i)
			}
		}
	}
}

func TestGRUEpilogueFastWithinTolerance(t *testing.T) {
	for _, n := range []int{1, 3, 7, 8, 9, 24, 100, 1024} {
		h, ax, ah := gruGateVectors(n, 16, 0xFA5F+uint64(n))
		want := CloneVec(h)
		GRUEpilogue(want, ax, ah)
		GRUEpilogueFast(h, ax, ah)
		for i := range h {
			if !FastActClose(h[i], want[i], FastGRUTol) {
				t.Fatalf("n=%d: GRUEpilogueFast h[%d] = %g, exact %g (ulp=%d)",
					n, i, h[i], want[i], ULPDiff32(h[i], want[i]))
			}
		}
	}
}

func TestSoftmaxStatsMatchesSoftmax(t *testing.T) {
	rng := NewRNG(0x50F7)
	for _, n := range []int{1, 2, 9, 29, 300} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(8 * rng.NormFloat64())
		}
		a := make([]float32, n)
		b := make([]float32, n)
		Softmax(a, src)
		mx, sum := SoftmaxStats(b, src)
		for i := range a {
			if !bitsEq(a[i], b[i]) {
				t.Fatalf("n=%d: SoftmaxStats[%d] = %b, Softmax %b", n, i, b[i], a[i])
			}
		}
		// The stats must recover the log-partition: logZ = log(sum) + mx.
		logZ := math.Log(sum) + float64(mx)
		direct := 0.0
		for _, x := range src {
			direct += math.Exp(float64(x))
		}
		if want := math.Log(direct); math.Abs(logZ-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("n=%d: logZ = %g, direct %g", n, logZ, want)
		}
	}
}

func TestSoftmaxFastWithinTolerance(t *testing.T) {
	rng := NewRNG(0x50F8)
	for _, n := range []int{1, 2, 7, 8, 9, 16, 29, 300, 1024} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(10 * rng.NormFloat64())
		}
		want := make([]float32, n)
		Softmax(want, src)
		got := make([]float32, n)
		SoftmaxFast(got, src)
		sum := float32(0)
		for i := range got {
			if !FastActClose(got[i], want[i], FastSoftmaxTol) {
				t.Fatalf("n=%d: SoftmaxFast[%d] = %g, exact %g (ulp=%d)",
					n, i, got[i], want[i], ULPDiff32(got[i], want[i]))
			}
			sum += got[i]
		}
		if math.Abs(float64(sum)-1) > 1e-4 {
			t.Fatalf("n=%d: SoftmaxFast sums to %g", n, sum)
		}
	}
}

// TestFastActAliasing checks dst==src in-place operation, which the nn
// steppers rely on.
func TestFastActAliasing(t *testing.T) {
	xs := actSweep(-6, 6, 100)
	want := make([]float32, len(xs))
	SigmoidFast(want, xs)
	got := CloneVec(xs)
	SigmoidFast(got, got)
	for i := range got {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("aliased SigmoidFast diverged at %d", i)
		}
	}
	TanhFast(want, xs)
	got = CloneVec(xs)
	TanhFast(got, got)
	for i := range got {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("aliased TanhFast diverged at %d", i)
		}
	}
}

// TestEpilogueAllocs gates the whole fused family at zero heap allocations
// — the contract that lets the steppers run them per frame indefinitely.
func TestEpilogueAllocs(t *testing.T) {
	h, ax, ah := gruGateVectors(256, 8, 1)
	dst := make([]float32, 256)
	checks := []struct {
		name string
		fn   func()
	}{
		{"GRUEpilogue", func() { GRUEpilogue(h, ax, ah) }},
		{"GRUEpilogueFast", func() { GRUEpilogueFast(h, ax, ah) }},
		{"SigmoidFast", func() { SigmoidFast(dst, h) }},
		{"TanhFast", func() { TanhFast(dst, h) }},
		{"SoftmaxFast", func() { SoftmaxFast(dst, h) }},
		{"SoftmaxStats", func() { SoftmaxStats(dst, h) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per run, want 0", c.name, n)
		}
	}
}

// FuzzEpilogueEquiv cross-checks the fused fast epilogue against the exact
// fused kernel (itself bit-pinned to the unfused reference) on arbitrary
// gate bytes, bounded to the pre-activation range the tolerance is derived
// for.
func FuzzEpilogueEquiv(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(8))
	f.Add(make([]byte, 70), uint16(3))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F, 0x55, 0xAA, 0x11, 0x22, 0x33}, uint16(1000))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint16) {
		n := int(nRaw)%257 + 1
		h := make([]float32, n)
		ax := make([]float32, 3*n)
		ah := make([]float32, 3*n)
		if len(raw) == 0 {
			raw = []byte{0}
		}
		at := func(i int) float32 {
			// Map a byte onto [-16, 16): half the ±32 pre-activation sum
			// range FastGRUTol is sized for.
			return (float32(raw[i%len(raw)]) - 128) / 8
		}
		for i := range h {
			h[i] = at(i) / 16 // state in [-1, 1)
		}
		for i := range ax {
			ax[i] = at(7*i + 1)
			ah[i] = at(11*i + 3)
		}
		want := CloneVec(h)
		GRUEpilogue(want, ax, ah)
		GRUEpilogueFast(h, ax, ah)
		for i := range h {
			if !FastActClose(h[i], want[i], FastGRUTol) {
				t.Errorf("n=%d: fast h[%d] = %g, exact %g (ulp=%d)",
					n, i, h[i], want[i], ULPDiff32(h[i], want[i]))
			}
		}
	})
}
