package nn

import (
	"fmt"
	"testing"

	"rtmobile/internal/tensor"
)

// batchTestModel builds a small stack ending in a Dense head.
func batchTestModel(seed uint64, lstm bool) *Model {
	spec := ModelSpec{InputDim: 7, Hidden: 12, NumLayers: 2, OutputDim: 5, Seed: seed}
	if lstm {
		spec.Cell = CellLSTM
	}
	return NewModel(spec)
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

// TestBatchStreamBitIdentical: lane l of the batched pipeline must emit
// byte-for-byte what a dedicated serial Stream fed lane l's frames emits,
// for both cell types and batch widths spanning 1, odd, and wide.
func TestBatchStreamBitIdentical(t *testing.T) {
	const T = 9
	for _, lstm := range []bool{false, true} {
		for _, bw := range []int{1, 3, 8} {
			label := fmt.Sprintf("lstm=%v bw=%d", lstm, bw)
			m := batchTestModel(11, lstm)
			in := m.Spec.InputDim
			out := m.Spec.OutputDim

			refs := make([]*Stream, bw)
			for l := range refs {
				refs[l] = m.NewStream()
			}
			bs := m.NewBatchStream(bw)
			panel := make([]float32, in*bw)
			for step := 0; step < T; step++ {
				want := make([][]float32, bw)
				for l := 0; l < bw; l++ {
					frame := batchFrame(3, l, step, in)
					for i, v := range frame {
						panel[i*bw+l] = v
					}
					logits := refs[l].Step(frame)
					want[l] = append([]float32(nil), logits...)
				}
				got := bs.StepBatch(panel)
				for l := 0; l < bw; l++ {
					for i := 0; i < out; i++ {
						if got[i*bw+l] != want[l][i] {
							t.Fatalf("%s step %d lane %d elem %d: batch %v vs serial %v",
								label, step, l, i, got[i*bw+l], want[l][i])
						}
					}
				}
			}
		}
	}
}

// TestBatchStreamResetLane: resetting one lane mid-utterance must restart
// exactly that lane (matching a freshly Reset serial stream) while leaving
// the neighboring lanes' bytes untouched.
func TestBatchStreamResetLane(t *testing.T) {
	const bw, T, resetAt, victim = 4, 10, 5, 1
	for _, lstm := range []bool{false, true} {
		m := batchTestModel(17, lstm)
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
						t.Fatalf("lstm=%v step %d lane %d elem %d: batch %v vs serial %v",
							lstm, step, l, i, got[i*bw+l], logits[i])
					}
				}
			}
		}
	}
}

// TestBatchStreamZeroAlloc: steady-state lockstep stepping must not touch
// the heap — the arena-reuse contract the engine's batch path builds on.
func TestBatchStreamZeroAlloc(t *testing.T) {
	m := batchTestModel(23, false)
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
	m := batchTestModel(29, false)
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
// a dedicated serial Stream emits.
func TestBatchStreamCopyLane(t *testing.T) {
	const T = 8
	for _, lstm := range []bool{false, true} {
		m := batchTestModel(31, lstm)
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
				t.Fatalf("lstm=%v step %d: the live flag did not travel with the lane", lstm, step)
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
					t.Fatalf("lstm=%v step %d (width %d lane %d) elem %d: moved lane %v vs serial %v",
						lstm, step, bw, lane, i, got[i*bw+lane], want[i])
				}
			}
		}
		cur.Retire(lane)
		idle := m.NewBatchStream(2)
		cur.CopyLaneTo(idle, 1, lane)
		if idle.Active(1) {
			t.Fatalf("lstm=%v: a retired lane arrived live", lstm)
		}
	}
}
