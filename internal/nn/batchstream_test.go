package nn

import (
	"testing"

	"rtmobile/internal/tensor"
)

// batchTestModel builds a small stack ending in a Dense head.
func batchTestModel(seed uint64) *Model {
	return NewModel(ModelSpec{InputDim: 7, Hidden: 12, NumLayers: 2, OutputDim: 5, Seed: seed})
}

// batchFrame produces a deterministic input frame for (lane, step).
func batchFrame(seed uint64, lane, step, dim int) []float32 {
	rng := tensor.NewRNG(seed*1009 + uint64(lane)*31 + uint64(step))
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// laneWidths spans the panel shapes: the live stream (1), narrow panels on
// the portable kernel (2, 7), one vector chunk (8), a chunk plus a remainder
// lane (9) and the widest panel serving uses (32).
var laneWidths = []int{1, 2, 7, 8, 9, 32}

// checkLanes steps a bw-wide stream over kernels k and holds every lane of
// every step to Forward on that lane's frames — the reference that shares no
// stepping code — under ok, and to a width-1 stream of the same kernels (the
// live stream) under the same contract.
func checkLanes(t *testing.T, label string, m *Model, k Kernels, bw int, ok func(got, want float32) bool) {
	t.Helper()
	const T = 9
	in, out := m.Spec.InputDim, m.Spec.OutputDim
	solo := make([]*BatchStream, bw)
	want := make([][][]float32, bw)
	for l := range solo {
		solo[l] = m.NewKernelBatchStream(1, k)
		frames := make([][]float32, T)
		for step := range frames {
			frames[step] = batchFrame(3, l, step, in)
		}
		want[l] = m.Forward(frames)
	}
	bs := m.NewKernelBatchStream(bw, k)
	panel := make([]float32, in*bw)
	for step := 0; step < T; step++ {
		for l := 0; l < bw; l++ {
			for i, v := range batchFrame(3, l, step, in) {
				panel[i*bw+l] = v
			}
		}
		got := bs.StepBatch(panel)
		for l := 0; l < bw; l++ {
			one := solo[l].StepBatch(batchFrame(3, l, step, in))
			for i := 0; i < out; i++ {
				if g, w := got[i*bw+l], want[l][step][i]; !ok(g, w) {
					t.Fatalf("%s bw=%d step %d lane %d elem %d: panel %v vs Forward %v", label, bw, step, l, i, g, w)
				}
				if g, w := got[i*bw+l], one[i]; !ok(g, w) {
					t.Fatalf("%s bw=%d step %d lane %d elem %d: panel %v vs width-1 stream %v", label, bw, step, l, i, g, w)
				}
			}
		}
	}
}

func bitEqual(got, want float32) bool { return got == want }

// TestBatchStreamBitIdentical: on the reference kernels lane l of a panel of
// any width must emit byte-for-byte what Forward computes for lane l's
// frames, and what the width-1 stream emits.
func TestBatchStreamBitIdentical(t *testing.T) {
	for _, bw := range laneWidths {
		checkLanes(t, "gru", batchTestModel(11), ReferenceKernels(), bw, bitEqual)
	}
}

// TestBroadcastRowsMatchLaneLoop pins the bias staging a stepper is built
// with — a bulk copy at width 1, the lane loop above it — to
// dst[i*bw+l] = src[i] at widths on both sides of the fork.
func TestBroadcastRowsMatchLaneLoop(t *testing.T) {
	src := batchFrame(7, 0, 0, 13)
	for _, bw := range []int{1, 2, 8, 9} {
		set := batchFrame(7, 1, bw, len(src)*bw)
		biasStaging(bw)(set, src, bw)
		for i, v := range src {
			for l := 0; l < bw; l++ {
				if set[i*bw+l] != v {
					t.Fatalf("bw=%d elem %d lane %d: staged %v, want %v", bw, i, l, set[i*bw+l], v)
				}
			}
		}
	}
}

// TestBatchStreamResetLane: resetting one lane mid-utterance must restart
// exactly that lane (matching a freshly Reset width-1 stream) while leaving
// the neighboring lanes' bytes untouched.
func TestBatchStreamResetLane(t *testing.T) {
	const bw, T, resetAt, victim = 4, 10, 5, 1
	m := batchTestModel(17)
	in := m.Spec.InputDim
	out := m.Spec.OutputDim

	refs := make([]*Stream, bw)
	for l := range refs {
		refs[l] = m.NewStream()
	}
	bs := m.NewBatchStream(bw)
	if !bs.Active(victim) {
		t.Fatal("lanes should start active")
	}
	bs.Retire(victim)
	if bs.Active(victim) {
		t.Fatal("Retire did not deactivate the lane")
	}
	panel := make([]float32, in*bw)
	for step := 0; step < T; step++ {
		if step == resetAt {
			bs.ResetLane(victim)
			refs[victim].Reset()
			if !bs.Active(victim) {
				t.Fatal("ResetLane did not re-activate the lane")
			}
		}
		for l := 0; l < bw; l++ {
			frame := batchFrame(5, l, step, in)
			for i, v := range frame {
				panel[i*bw+l] = v
			}
		}
		got := bs.StepBatch(panel)
		for l := 0; l < bw; l++ {
			logits := refs[l].Step(batchFrame(5, l, step, in))
			for i := 0; i < out; i++ {
				if got[i*bw+l] != logits[i] {
					t.Fatalf("step %d lane %d elem %d: batch %v vs serial %v",
						step, l, i, got[i*bw+l], logits[i])
				}
			}
		}
	}
}

// TestBatchStreamZeroAlloc: steady-state lockstep stepping must not touch
// the heap — the arena-reuse contract the engine's batch path builds on.
func TestBatchStreamZeroAlloc(t *testing.T) {
	m := batchTestModel(23)
	const bw = 8
	bs := m.NewBatchStream(bw)
	panel := make([]float32, m.Spec.InputDim*bw)
	for i := range panel {
		panel[i] = float32(i%13) * 0.1
	}
	bs.StepBatch(panel)
	if allocs := testing.AllocsPerRun(50, func() {
		bs.StepBatch(panel)
	}); allocs != 0 {
		t.Fatalf("StepBatch allocates %v times per call, want 0", allocs)
	}
}

// TestNewBatchStreamValidation pins the constructor panics.
func TestNewBatchStreamValidation(t *testing.T) {
	m := batchTestModel(29)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("batch width 0 accepted")
			}
		}()
		m.NewBatchStream(0)
	}()
	if got := m.NewBatchStream(3).Width(); got != 3 {
		t.Fatalf("Width() = %d, want 3", got)
	}
}

// TestBatchStreamCopyLane: an utterance hopping between panels of different
// widths at every step — its lane's recurrent state and live flag copied
// each time into a stream whose lanes hold stale state — emits exactly what
// a width-1 Stream that never moved emits.
func TestBatchStreamCopyLane(t *testing.T) {
	const T = 8
	m := batchTestModel(31)
	in, out := m.Spec.InputDim, m.Spec.OutputDim
	ref := m.NewStream()
	cur, lane := m.NewBatchStream(1), 0
	for step := 0; step < T; step++ {
		// Hop to a fresh stream of another width whose every lane has
		// already been stepped on junk.
		bw := []int{8, 3, 1}[step%3]
		next := m.NewBatchStream(bw)
		junk := make([]float32, in*bw)
		for i := range junk {
			junk[i] = float32(i%7) - 3
		}
		next.StepBatch(junk)
		nl := (lane + 2) % bw
		next.Retire(nl)
		cur.CopyLaneTo(next, nl, lane)
		if !next.Active(nl) {
			t.Fatalf("step %d: the live flag did not travel with the lane", step)
		}
		cur, lane = next, nl

		frame := batchFrame(9, 0, step, in)
		panel := make([]float32, in*bw)
		for i, v := range frame {
			panel[i*bw+lane] = v
		}
		got := cur.StepBatch(panel)
		want := ref.Step(frame)
		for i := 0; i < out; i++ {
			if got[i*bw+lane] != want[i] {
				t.Fatalf("step %d (width %d lane %d) elem %d: moved lane %v vs serial %v",
					step, bw, lane, i, got[i*bw+lane], want[i])
			}
		}
	}
	cur.Retire(lane)
	idle := m.NewBatchStream(2)
	cur.CopyLaneTo(idle, 1, lane)
	if idle.Active(1) {
		t.Fatal("a retired lane arrived live")
	}
}
