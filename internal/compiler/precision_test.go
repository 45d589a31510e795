package compiler

import "testing"

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
