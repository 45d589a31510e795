package speech

import (
	"testing"

	"rtmobile/internal/tensor"
)

func onehot(id int) []float32 {
	row := make([]float32, NumPhones)
	row[id] = 1
	return row
}

// greedyDecode is SmoothDecode without smoothing: per-frame argmax, merge
// repeats, drop silence. It is the reference the smoothing tests compare
// against.
func greedyDecode(posteriors [][]float32) []int {
	frames := make([]int, len(posteriors))
	for t, row := range posteriors {
		frames[t] = tensor.ArgMax(row)
	}
	return CollapseFrames(frames)
}

func TestSmoothDecodeMatchesGreedyOnCleanInput(t *testing.T) {
	// Long stable runs: smoothing must not change the decode.
	var post [][]float32
	for i := 0; i < 10; i++ {
		post = append(post, onehot(1))
	}
	for i := 0; i < 10; i++ {
		post = append(post, onehot(2))
	}
	a := greedyDecode(post)
	b := SmoothDecode(post, 5, 3)
	if len(a) != len(b) {
		t.Fatalf("greedy %v vs smooth %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("greedy %v vs smooth %v", a, b)
		}
	}
}

func TestSmoothDecodeSuppressesFlicker(t *testing.T) {
	// One-frame flickers inside a long run must disappear.
	var post [][]float32
	for i := 0; i < 20; i++ {
		if i == 7 || i == 13 {
			post = append(post, onehot(5)) // flicker
		} else {
			post = append(post, onehot(1))
		}
	}
	got := SmoothDecode(post, 5, 3)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("flicker survived smoothing: %v", got)
	}
	// Greedy (unsmoothed) keeps the insertions.
	greedy := greedyDecode(post)
	if len(greedy) <= 1 {
		t.Fatalf("test premise broken: greedy should flicker, got %v", greedy)
	}
}

func TestSmoothDecodeEmpty(t *testing.T) {
	if SmoothDecode(nil, 5, 3) != nil {
		t.Fatal("empty input should decode to nil")
	}
}

func TestSmoothDecodeWindowOne(t *testing.T) {
	post := [][]float32{onehot(3), onehot(3), onehot(3), onehot(4), onehot(4), onehot(4)}
	got := SmoothDecode(post, 1, 1)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("window-1 minrun-1 smooth decode %v", got)
	}
}

func TestAbsorbShortRuns(t *testing.T) {
	frames := []int{1, 1, 1, 1, 2, 1, 1, 1, 1}
	out := absorbShortRuns(frames, 3)
	for _, v := range out {
		if v != 1 {
			t.Fatalf("short run not absorbed: %v", out)
		}
	}
	// Short prefix absorbs forward.
	frames = []int{9, 2, 2, 2, 2}
	out = absorbShortRuns(frames, 2)
	if out[0] != 2 {
		t.Fatalf("short prefix not absorbed: %v", out)
	}
	// Runs meeting minRun survive.
	frames = []int{1, 1, 1, 2, 2, 2}
	out = absorbShortRuns(frames, 3)
	if out[0] != 1 || out[5] != 2 {
		t.Fatalf("long runs modified: %v", out)
	}
}

func TestSmoothDecodeDeterministic(t *testing.T) {
	rng := tensor.NewRNG(4)
	post := make([][]float32, 30)
	for t2 := range post {
		row := make([]float32, NumPhones)
		for j := range row {
			row[j] = rng.Float32()
		}
		post[t2] = row
	}
	a := SmoothDecode(post, 5, 3)
	b := SmoothDecode(post, 5, 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
}
