package dsp

import (
	"math"
	"testing"
)

func TestMelHzRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 440, 1000, 4000, 8000} {
		back := MelToHz(HzToMel(hz))
		if math.Abs(back-hz) > 1e-6*math.Max(1, hz) {
			t.Fatalf("mel round trip %v -> %v", hz, back)
		}
	}
}

func TestMelMonotonic(t *testing.T) {
	prev := -1.0
	for hz := 0.0; hz <= 8000; hz += 50 {
		m := HzToMel(hz)
		if m <= prev {
			t.Fatalf("HzToMel not strictly increasing at %v Hz", hz)
		}
		prev = m
	}
}

func TestMelFilterbankShape(t *testing.T) {
	fb := MelFilterbank(26, 512, 16000, 0, 8000)
	if len(fb) != 26 {
		t.Fatalf("filterbank rows %d", len(fb))
	}
	for m, filt := range fb {
		if len(filt) != 257 {
			t.Fatalf("filter %d has %d bins", m, len(filt))
		}
		peak := 0.0
		for _, w := range filt {
			if w < 0 || w > 1+1e-12 {
				t.Fatalf("filter %d has weight %v outside [0,1]", m, w)
			}
			if w > peak {
				peak = w
			}
		}
		if peak < 0.5 {
			t.Fatalf("filter %d peak %v — triangle degenerate", m, peak)
		}
	}
}

func TestMelFilterbankCoversSpectrum(t *testing.T) {
	// Every interior bin should be covered by at least one filter
	// (triangles overlap 50% by construction).
	fb := MelFilterbank(26, 512, 16000, 20, 8000)
	nBins := 257
	coverage := make([]float64, nBins)
	for _, filt := range fb {
		for k, w := range filt {
			coverage[k] += w
		}
	}
	// Skip the very edges (below first filter's left edge / above last's right).
	uncovered := 0
	for k := 10; k < nBins-5; k++ {
		if coverage[k] == 0 {
			uncovered++
		}
	}
	if uncovered > 0 {
		t.Fatalf("%d interior bins uncovered by the filterbank", uncovered)
	}
}

func TestApplyFilterbankFloor(t *testing.T) {
	fb := MelFilterbank(10, 64, 16000, 0, 8000)
	zero := make([]float64, 33)
	out := ApplyFilterbank(fb, zero)
	for m, v := range out {
		if math.IsInf(v, -1) || math.IsNaN(v) {
			t.Fatalf("filter %d: log energy %v on silence", m, v)
		}
	}
}

func TestDCT2Orthonormal(t *testing.T) {
	// DCT-II of a constant vector: only c0 nonzero, and it equals sqrt(n)*v.
	n := 8
	x := make([]float64, n)
	for i := range x {
		x[i] = 3
	}
	c := DCT2(x, n)
	if math.Abs(c[0]-3*math.Sqrt(float64(n))) > 1e-9 {
		t.Fatalf("DCT c0 = %v", c[0])
	}
	for k := 1; k < n; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("DCT c%d = %v, want 0", k, c[k])
		}
	}
}

func TestDCT2EnergyPreserved(t *testing.T) {
	// Orthonormal DCT preserves the L2 norm when all coefficients are kept.
	x := []float64{1, -2, 3, 0.5, -1.5, 2.5, 0, 1}
	c := DCT2(x, len(x))
	ex, ec := 0.0, 0.0
	for i := range x {
		ex += x[i] * x[i]
		ec += c[i] * c[i]
	}
	if math.Abs(ex-ec) > 1e-9 {
		t.Fatalf("DCT energy %v != signal energy %v", ec, ex)
	}
}

func TestDCT2Truncation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	c := DCT2(x, 2)
	if len(c) != 2 {
		t.Fatalf("truncated DCT length %d", len(c))
	}
	full := DCT2(x, 4)
	if c[0] != full[0] || c[1] != full[1] {
		t.Fatal("truncated DCT differs from prefix of full DCT")
	}
}

func TestDeltasConstantSignal(t *testing.T) {
	feats := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	d := Deltas(feats, 2)
	for t2, row := range d {
		for j, v := range row {
			if v != 0 {
				t.Fatalf("delta of constant signal nonzero at (%d,%d): %v", t2, j, v)
			}
		}
	}
}

func TestDeltasLinearRamp(t *testing.T) {
	// For a linear ramp x[t]=t the regression delta equals the slope 1
	// away from the boundaries.
	n := 10
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = []float64{float64(i)}
	}
	d := Deltas(feats, 2)
	for t2 := 2; t2 < n-2; t2++ {
		if math.Abs(d[t2][0]-1) > 1e-9 {
			t.Fatalf("ramp delta at %d = %v, want 1", t2, d[t2][0])
		}
	}
}

func TestWindowsSymmetric(t *testing.T) {
	w := HammingWindow(33)
	n := len(w)
	for i := 0; i < n/2; i++ {
		if math.Abs(w[i]-w[n-1-i]) > 1e-12 {
			t.Fatalf("hamming window asymmetric at %d", i)
		}
	}
	if peak := w[n/2]; math.Abs(peak-1) > 1e-12 {
		t.Fatalf("hamming center %v, want 1", peak)
	}
}

func TestWindowSingleton(t *testing.T) {
	if HammingWindow(1)[0] != 1 {
		t.Fatal("a length-1 window must be [1]")
	}
}

func TestPreEmphasis(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	y := PreEmphasis(x, 0.97)
	if y[0] != 1 {
		t.Fatalf("pre-emphasis first sample %v", y[0])
	}
	for t2 := 1; t2 < len(y); t2++ {
		if math.Abs(y[t2]-0.03) > 1e-12 {
			t.Fatalf("pre-emphasis of DC at %d = %v, want 0.03", t2, y[t2])
		}
	}
}

func TestFramesCount(t *testing.T) {
	x := make([]float64, 100)
	fr := Frames(x, 25, 10)
	for i, f := range fr {
		if len(f) != 25 {
			t.Fatalf("frame %d length %d", i, len(f))
		}
	}
	// Starts at 0,10,...,90 -> 10 frames.
	if len(fr) != 10 {
		t.Fatalf("frame count %d, want 10", len(fr))
	}
}

func TestFramesZeroPadding(t *testing.T) {
	x := []float64{1, 2, 3}
	fr := Frames(x, 5, 5)
	if len(fr) != 1 || fr[0][3] != 0 || fr[0][4] != 0 {
		t.Fatalf("short signal not zero padded: %v", fr)
	}
}

func TestFramesEmpty(t *testing.T) {
	if Frames(nil, 10, 5) != nil {
		t.Fatal("empty signal should produce no frames")
	}
}
