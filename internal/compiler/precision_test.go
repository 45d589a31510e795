package compiler

import (
	"testing"

	"rtmobile/internal/prune"
)

func TestPrecisionParseString(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
	}{
		{"", PrecisionExact},
		{"exact", PrecisionExact},
		{"fast", PrecisionFast},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !PrecisionValid(got) {
			t.Errorf("PrecisionValid(%v) = false", got)
		}
	}
	if _, err := ParsePrecision("float64"); err == nil {
		t.Error("ParsePrecision accepted an unknown tier")
	}
	if PrecisionExact.String() != "exact" || PrecisionFast.String() != "fast" {
		t.Errorf("String: %q / %q", PrecisionExact, PrecisionFast)
	}
	if PrecisionValid(Precision(7)) {
		t.Error("PrecisionValid accepted 7")
	}
	if s := Precision(7).String(); s != "precision(7)" {
		t.Errorf("Precision(7).String() = %q", s)
	}
}

// TestTuneTilingMeasuredPricesFastTier checks the tier rules of the
// measured tuner: exact-tier callers never see fast candidates, fast-tier
// callers get exactly one fast candidate priced against the exact unroll
// sweep, and the winner's tier is recorded.
func TestTuneTilingMeasuredPricesFastTier(t *testing.T) {
	scheme := prune.BSP{ColRate: 4, RowRate: 2, NumRowGroups: 4, NumColBlocks: 4}
	w := bspMat(2, 48, 40, scheme)
	s := scheme
	srcs := []MatrixSource{{Name: "m", W: w, Scheme: &s}}
	space := TuneSpace{Unrolls: []int{1, 4}}

	opt := DefaultOptions(FormatBSPC, 32)
	res, err := TuneTilingMeasured(srcs, opt, 4, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2 || res.Precision != PrecisionExact {
		t.Errorf("exact tuning: evaluated %d (want 2), precision %v (want exact)",
			res.Evaluated, res.Precision)
	}

	opt.Precision = PrecisionFast
	res, err = TuneTilingMeasured(srcs, opt, 4, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 3 {
		t.Errorf("fast tuning: evaluated %d candidates, want 3 (2 exact + 1 fast)", res.Evaluated)
	}
	if !PrecisionValid(res.Precision) {
		t.Errorf("fast tuning: invalid winner tier %v", res.Precision)
	}
	if !res.Measured {
		t.Error("fast tuning: Measured not set")
	}
}
