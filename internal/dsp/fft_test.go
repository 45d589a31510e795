package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"rtmobile/internal/tensor"
)

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(seed uint64, n int) []complex128 {
	rng := tensor.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// dft computes the discrete Fourier transform directly in O(n²): the
// oracle FFT is checked against.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(angle), math.Sin(angle))
		}
		out[k] = sum
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(uint64(n), n)
		want := dft(x)
		got := make([]complex128, n)
		copy(got, x)
		FFT(got)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Fatalf("FFT(n=%d) does not match DFT", n)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v", i, v)
		}
	}
}

func TestFFTSinusoid(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy in bin k.
	n := 64
	k := 5
	x := make([]complex128, n)
	for t := range x {
		angle := 2 * math.Pi * float64(k) * float64(t) / float64(n)
		x[t] = complex(math.Cos(angle), math.Sin(angle))
	}
	FFT(x)
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Fatalf("bin %d magnitude %v, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 6 did not panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestIFFTRoundTrip(t *testing.T) {
	x := randComplex(99, 128)
	y := make([]complex128, len(x))
	copy(y, x)
	FFT(y)
	IFFT(y)
	if !complexClose(x, y, 1e-10) {
		t.Fatal("IFFT(FFT(x)) != x")
	}
}

// Property: Parseval — energy in time equals energy in frequency / n.
func TestQuickParseval(t *testing.T) {
	f := func(seed uint64) bool {
		n := 64
		x := randComplex(seed, n)
		timeE := 0.0
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		y := make([]complex128, n)
		copy(y, x)
		FFT(y)
		freqE := 0.0
		for _, v := range y {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-7*timeE+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFT is linear.
func TestQuickFFTLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		n := 32
		a := randComplex(seed, n)
		b := randComplex(seed+1, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = 2*a[i] + 3*b[i]
		}
		FFT(sum)
		fa := make([]complex128, n)
		fb := make([]complex128, n)
		copy(fa, a)
		copy(fb, b)
		FFT(fa)
		FFT(fb)
		for i := range sum {
			want := 2*fa[i] + 3*fb[i]
			if cmplx.Abs(sum[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerSpectrumRealSignal(t *testing.T) {
	// cos at bin 4 of a 32-point FFT: power concentrates at bin 4.
	n := 32
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 4 * float64(i) / float64(n))
	}
	p := PowerSpectrum(x)
	if len(p) != n/2+1 {
		t.Fatalf("one-sided length %d", len(p))
	}
	peak := tensorArgMaxF64(p)
	if peak != 4 {
		t.Fatalf("power peak at bin %d, want 4", peak)
	}
}

func tensorArgMaxF64(v []float64) int {
	bi := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[bi] {
			bi = i
		}
	}
	return bi
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 400: 512, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCirculantFFTMatchesDirect(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64} {
		rng := tensor.NewRNG(uint64(n))
		c := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		fast := CirculantMulFFT(c, x)
		direct := CirculantMulDirect(c, x)
		for i := range fast {
			if math.Abs(fast[i]-direct[i]) > 1e-8 {
				t.Fatalf("n=%d element %d: fft=%v direct=%v", n, i, fast[i], direct[i])
			}
		}
	}
}

func TestCirculantIdentity(t *testing.T) {
	// c = e0 gives the identity matrix.
	c := []float64{1, 0, 0, 0}
	x := []float64{4, 3, 2, 1}
	got := CirculantMulFFT(c, x)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-10 {
			t.Fatalf("identity circulant mangled input: %v", got)
		}
	}
}

func TestCirculantShift(t *testing.T) {
	// c = e1 is the cyclic down-shift: out[i] = x[i-1 mod n].
	c := []float64{0, 1, 0, 0}
	x := []float64{10, 20, 30, 40}
	got := CirculantMulFFT(c, x)
	want := []float64{40, 10, 20, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("shift circulant got %v, want %v", got, want)
		}
	}
}

func TestCirculantNonPow2FallsBack(t *testing.T) {
	rng := tensor.NewRNG(5)
	n := 6
	c := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = rng.NormFloat64()
		x[i] = rng.NormFloat64()
	}
	fast := CirculantMulFFT(c, x)
	direct := CirculantMulDirect(c, x)
	for i := range fast {
		if math.Abs(fast[i]-direct[i]) > 1e-9 {
			t.Fatal("non-pow2 circulant fallback incorrect")
		}
	}
}
