package nn

import (
	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// Streaming inference. The batch Forward path resets recurrent state per
// utterance — fine for offline scoring, but the paper's use case is live
// speech, where frames arrive one at a time and state must persist across
// calls. There is one stepper family, the panel steppers of batchstream.go:
// a plain vector is a column-major panel of width 1, so the serial stream is
// the width-1 BatchStream and this file holds only what binds the steppers
// to their arithmetic.

// MatVec is one weight matrix bound to its y += W·x kernel over bw-wide
// column-major panels (element i of lane l at panel[i*bw+l]; plain vectors
// at bw == 1). Each row's dot is rounded to float32 once and then added to y
// — tensor.MatVecAdd's contract, which the bias staging in every stepper
// relies on.
type MatVec func(y, x []float32)

// Kernels is the arithmetic a stream's steppers run. The steppers own the
// step order (bias, projections, gate epilogue); Kernels says what executes
// each projection and which epilogue tier blends the gates — the dense
// reference here, a deployment's compiled programs in internal/rtmobile.
type Kernels struct {
	// MatVec binds weight matrix p for bw-wide panels (bw == 1: vectors).
	MatVec func(p *Param, bw int) MatVec
	// FastEpilogue selects the SIMD polynomial σ/tanh gate blend
	// (tolerance-verified, see tensor.FastActClose) over the bit-pinned
	// exact one.
	FastEpilogue bool
}

// ReferenceKernels binds every projection to tensor.MatVecAddBatch (which is
// tensor.MatVecAdd at width 1) over the model's own dense weights with the
// exact epilogue: the training-side reference whose steps replay Forward's
// float operation order bit for bit.
func ReferenceKernels() Kernels {
	return Kernels{MatVec: func(p *Param, bw int) MatVec {
		w := p.W
		return func(y, x []float32) { tensor.MatVecAddBatch(y, w, x, bw) }
	}}
}

// gruEpilogue selects the gate-epilogue tier: the exact fused kernel is
// bit-identical to the historical unfused gate loop, the fast kernel runs
// the SIMD polynomial σ/tanh blend. Captured once at construction so the
// per-step hot loop stays branch-cheap.
func gruEpilogue(fast bool) func(h, ax, ah []float32) {
	if fast {
		return tensor.GRUEpilogueFast
	}
	return tensor.GRUEpilogue
}

// stageTraced is implemented by steppers that record sub-layer stage times
// (currently the GRU epilogue); BatchStream.SetTracer wires it.
type stageTraced interface {
	setStageTracer(tr *obs.Tracer, layerID int32)
}

// Stream is the width-1 face of BatchStream for callers that hold one
// utterance: Step takes and returns plain vectors, which are the width-1
// panels StepBatch works on.
type Stream struct{ *BatchStream }

// NewStream builds the reference streaming pipeline over the model's dense
// weights (ReferenceKernels): what training-side code, the tests and the
// benchmark's oracle step. Panics if a layer type has no streaming form.
func (m *Model) NewStream() *Stream { return &Stream{m.NewBatchStream(1)} }

// Step pushes one frame through the stack and returns the logits. The
// returned slice is the last stepper's persistent buffer: it is valid
// until the next Step call, after which it is overwritten. Copy it to
// retain it across frames.
func (s *Stream) Step(x []float32) []float32 { return s.StepBatch(x) }
