package speech

import (
	"testing"
	"testing/quick"

	"rtmobile/internal/tensor"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 0},
		{[]int{1, 2, 3}, nil, 3},
		{nil, []int{1, 2}, 2},
		{[]int{1, 2, 3}, []int{1, 9, 3}, 1}, // substitution
		{[]int{1, 2, 3}, []int{1, 3}, 1},    // deletion
		{[]int{1, 3}, []int{1, 2, 3}, 1},    // insertion
		{[]int{1, 2, 3, 4}, []int{4, 3, 2, 1}, 4},
		{[]int{5}, []int{6}, 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Fatalf("Levenshtein(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randSeq(rng *tensor.RNG, maxLen, alphabet int) []int {
	n := rng.Intn(maxLen + 1)
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Intn(alphabet)
	}
	return s
}

// Property: symmetry d(a,b) == d(b,a).
func TestQuickLevenshteinSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randSeq(rng, 12, 5)
		b := randSeq(rng, 12, 5)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity of indiscernibles — d(a,a) == 0; d(a,b)==0 ⇒ equal.
func TestQuickLevenshteinIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randSeq(rng, 12, 5)
		return Levenshtein(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality d(a,c) <= d(a,b)+d(b,c).
func TestQuickLevenshteinTriangle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randSeq(rng, 10, 4)
		b := randSeq(rng, 10, 4)
		c := randSeq(rng, 10, 4)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: length-difference lower bound and max-length upper bound.
func TestQuickLevenshteinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randSeq(rng, 15, 6)
		b := randSeq(rng, 15, 6)
		d := Levenshtein(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseFrames(t *testing.T) {
	s := SilenceID
	frames := []int{s, s, 1, 1, 1, 2, s, s, 2, 2, 3, s}
	got := CollapseFrames(frames)
	want := []int{1, 2, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("CollapseFrames got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CollapseFrames got %v, want %v", got, want)
		}
	}
}

func TestCollapseFramesAllSilence(t *testing.T) {
	if got := CollapseFrames([]int{SilenceID, SilenceID}); len(got) != 0 {
		t.Fatalf("all-silence collapse got %v", got)
	}
}

func TestPERPerfect(t *testing.T) {
	var r PERResult
	r.ScoreUtterance([]int{1, 2, 3}, []int{SilenceID, 1, 2, 3, SilenceID})
	if r.PER() != 0 {
		t.Fatalf("perfect hyp PER = %v", r.PER())
	}
	if r.RefPhones != 3 {
		t.Fatalf("ref phones %d", r.RefPhones)
	}
}

func TestPERAllWrong(t *testing.T) {
	var r PERResult
	r.ScoreUtterance([]int{9, 9, 9}, []int{1, 2, 3})
	if r.PER() != 100 {
		t.Fatalf("all-wrong PER = %v, want 100", r.PER())
	}
}

func TestPEREmptyHyp(t *testing.T) {
	var r PERResult
	r.ScoreUtterance(nil, []int{1, 2, 3, 4})
	if r.PER() != 100 {
		t.Fatalf("empty hyp PER = %v, want 100 (all deletions)", r.PER())
	}
}

func TestPERAccumulates(t *testing.T) {
	var r PERResult
	r.ScoreUtterance([]int{1, 2}, []int{1, 2})
	r.ScoreUtterance([]int{1}, []int{1, 2})
	if r.Utts != 2 || r.RefPhones != 4 || r.Errors != 1 {
		t.Fatalf("accumulation wrong: %+v", r)
	}
	if r.PER() != 25 {
		t.Fatalf("PER = %v, want 25", r.PER())
	}
}

func TestFrameAccuracy(t *testing.T) {
	mk := func(id int) []float32 {
		row := make([]float32, NumPhones)
		row[id] = 1
		return row
	}
	post := [][]float32{mk(0), mk(1), mk(2), mk(3)}
	labels := []int{0, 1, 9, 3}
	if acc := FrameAccuracy(post, labels); acc != 0.75 {
		t.Fatalf("FrameAccuracy = %v", acc)
	}
}
