package nn

import (
	"fmt"
	"math"
	"testing"

	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// Fused-epilogue stepper suite. The exact tier must stay bit-identical to
// the historical unfused loops (covered transitively by the stream/batch
// bit-identity tests plus tensor's GRUEpilogue pin); here we pin the new
// tier-selection axis: every (matvec, epilogue) tier combination runs,
// fast combinations stay tolerance-close to the exact stream, the panels
// keep their lane discipline at every width, epilogue spans are recorded, and the
// hot path stays allocation-free.

// epilogueStreamTol bounds a whole fast-tier stack (fast GEMVs + fast
// epilogue, recurrence compounding over the utterance) against the exact
// stack — far looser than the per-kernel bounds, same order as the
// stream-vs-forward tolerance used elsewhere in this package.
const epilogueStreamTol = 1e-3

// tierKernels binds the dense projections on either matvec tier and selects
// the epilogue tier — the (matvec, epilogue) ablation axis of this suite.
func tierKernels(fastMV, fastEpilogue bool) Kernels {
	k := ReferenceKernels()
	k.FastEpilogue = fastEpilogue
	if fastMV {
		k.MatVec = func(p *Param, bw int) MatVec {
			w := p.W
			return func(y, x []float32) { tensor.MatVecAddBatchFast(y, w, x, bw) }
		}
	}
	return k
}

// kernelStream is the width-1 stream over the given kernels.
func kernelStream(m *Model, k Kernels) *Stream { return &Stream{m.NewKernelBatchStream(1, k)} }

func TestStreamTiersFusedEpilogue(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 9, Hidden: 24, NumLayers: 2, OutputDim: 6, Seed: 17})
	const T = 12
	frames := make([][]float32, T)
	for i := range frames {
		frames[i] = batchFrame(5, 0, i, 9)
	}
	exact := kernelStream(m, tierKernels(false, false))
	ref := m.NewStream()
	for _, tiers := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		s := kernelStream(m, tierKernels(tiers[0], tiers[1]))
		exact.Reset()
		ref.Reset()
		for step, f := range frames {
			want := ref.Step(f)
			got := s.Step(f)
			base := exact.Step(f)
			for j := range want {
				// The plain-tier stream must stay bit-identical to NewStream.
				if want[j] != base[j] {
					t.Fatalf("tiers(false,false) diverged from NewStream at step %d dim %d", step, j)
				}
				if math.Abs(float64(got[j]-want[j])) > epilogueStreamTol {
					t.Fatalf("tiers(%v,%v) step %d dim %d: %v vs exact %v",
						tiers[0], tiers[1], step, j, got[j], want[j])
				}
			}
		}
	}
}

// TestBatchStreamFusedEpilogueLanes: with the fused epilogue on either
// tier, lane l of a panel of any width must match Forward and the width-1
// stream of the same tiers — bit-identical on the exact tier (same scalar
// ops per element), tolerance-close on the fast tiers (the 8-wide vector
// split lands on different elements at different widths).
func TestBatchStreamFusedEpilogueLanes(t *testing.T) {
	within := func(got, want float32) bool { return math.Abs(float64(got-want)) <= epilogueStreamTol }
	for _, tiers := range [][2]bool{{false, false}, {false, true}, {true, true}} {
		ok := within
		if !tiers[0] && !tiers[1] {
			ok = bitEqual
		}
		for _, bw := range laneWidths {
			checkLanes(t, fmt.Sprintf("tiers=%v", tiers), batchTestModel(41),
				tierKernels(tiers[0], tiers[1]), bw, ok)
		}
	}
}

// TestStreamEpilogueSpans: a traced stream records one StageEpilogue span
// per GRU layer per step, nested inside the layer spans.
func TestStreamEpilogueSpans(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 6, Hidden: 16, NumLayers: 2, OutputDim: 4, Seed: 23})
	s := kernelStream(m, tierKernels(true, true))
	tr := obs.NewTracer(8)
	s.SetTracer(tr)
	const steps = 5
	x := make([]float32, 6)
	for i := 0; i < steps; i++ {
		s.Step(x)
	}
	count, ns := tr.KindTotal(obs.StageEpilogue)
	if want := uint64(2 * steps); count != want { // 2 GRU layers; Dense head has no epilogue
		t.Fatalf("epilogue spans = %d, want %d", count, want)
	}
	if ns < 0 {
		t.Fatalf("negative epilogue time %d", ns)
	}
	_, layerNs := tr.KindTotal(obs.StageLayer)
	if ns > layerNs {
		t.Fatalf("epilogue time %d exceeds layer time %d", ns, layerNs)
	}
	// Detach: spans stop accumulating.
	s.SetTracer(nil)
	s.Step(x)
	if c2, _ := tr.KindTotal(obs.StageEpilogue); c2 != count {
		t.Fatalf("detached tracer still recording (%d -> %d)", count, c2)
	}

	// A batch panel step records one epilogue per GRU layer, whatever its
	// width.
	bs := m.NewKernelBatchStream(3, tierKernels(true, true))
	trb := obs.NewTracer(8)
	bs.SetTracer(trb)
	bs.StepBatch(make([]float32, 6*3))
	if c, _ := trb.KindTotal(obs.StageEpilogue); c != 2 {
		t.Fatalf("batch epilogue spans = %d, want 2", c)
	}
}

// TestStreamFusedStepZeroAlloc gates the fused stepper hot path — traced
// and untraced, width 1 and wider, both tiers — at zero heap allocations.
func TestStreamFusedStepZeroAlloc(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 5, Seed: 31})
	x := make([]float32, 8)
	tr := obs.NewTracer(8)
	for _, tiers := range [][2]bool{{false, false}, {true, true}} {
		s := kernelStream(m, tierKernels(tiers[0], tiers[1]))
		s.Step(x)
		if n := testing.AllocsPerRun(50, func() { s.Step(x) }); n != 0 {
			t.Errorf("tiers %v untraced Step allocates %.0f/op, want 0", tiers, n)
		}
		s.SetTracer(tr)
		if n := testing.AllocsPerRun(50, func() { s.Step(x) }); n != 0 {
			t.Errorf("tiers %v traced Step allocates %.0f/op, want 0", tiers, n)
		}
		bs := m.NewKernelBatchStream(4, tierKernels(tiers[0], tiers[1]))
		panel := make([]float32, 8*4)
		bs.StepBatch(panel)
		if n := testing.AllocsPerRun(50, func() { bs.StepBatch(panel) }); n != 0 {
			t.Errorf("tiers %v StepBatch allocates %.0f/op, want 0", tiers, n)
		}
	}
	_ = tensor.FastSIMD() // suite exercises both dispatch outcomes via build tags
}
