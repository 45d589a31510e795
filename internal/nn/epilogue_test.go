package nn

import (
	"testing"

	"rtmobile/internal/obs"
)

// Fused-epilogue stepper suite. The fused GRUEpilogue must stay
// bit-identical to the historical unfused loops (covered by the stream/batch
// bit-identity tests plus tensor's GRUEpilogue pin); here we pin that
// epilogue spans are recorded and that the hot path stays allocation-free.

// kernelStream is the width-1 stream over the given kernels.
func kernelStream(m *Model, k Kernels) *Stream { return &Stream{m.NewKernelBatchStream(1, k)} }

// TestStreamEpilogueSpans: a traced stream records one StageEpilogue span
// per GRU layer per step, nested inside the layer spans.
func TestStreamEpilogueSpans(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 6, Hidden: 16, NumLayers: 2, OutputDim: 4, Seed: 23})
	s := kernelStream(m, ReferenceKernels())
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
	bs := m.NewKernelBatchStream(3, ReferenceKernels())
	trb := obs.NewTracer(8)
	bs.SetTracer(trb)
	bs.StepBatch(make([]float32, 6*3))
	if c, _ := trb.KindTotal(obs.StageEpilogue); c != 2 {
		t.Fatalf("batch epilogue spans = %d, want 2", c)
	}
}

// TestStreamFusedStepZeroAlloc gates the fused stepper hot path — traced
// and untraced, width 1 and wider — at zero heap allocations.
func TestStreamFusedStepZeroAlloc(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 5, Seed: 31})
	x := make([]float32, 8)
	s := kernelStream(m, ReferenceKernels())
	s.Step(x)
	if n := testing.AllocsPerRun(50, func() { s.Step(x) }); n != 0 {
		t.Errorf("untraced Step allocates %.0f/op, want 0", n)
	}
	s.SetTracer(obs.NewTracer(8))
	if n := testing.AllocsPerRun(50, func() { s.Step(x) }); n != 0 {
		t.Errorf("traced Step allocates %.0f/op, want 0", n)
	}
	bs := m.NewKernelBatchStream(4, ReferenceKernels())
	panel := make([]float32, 8*4)
	bs.StepBatch(panel)
	if n := testing.AllocsPerRun(50, func() { bs.StepBatch(panel) }); n != 0 {
		t.Errorf("StepBatch allocates %.0f/op, want 0", n)
	}
}
