package nn

import (
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// Streaming inference. The batch Forward path resets recurrent state per
// utterance — fine for offline scoring, but the paper's use case is live
// speech, where frames arrive one at a time and state must persist across
// calls. Stepper is the per-frame interface; Model.NewStream composes the
// whole stack into a stateful frame-in/logits-out pipeline without
// touching the training caches.

// Stepper is a layer that can advance one frame at a time.
type Stepper interface {
	// Step consumes one input frame and returns the layer's output frame.
	// The returned slice is owned by the stepper and is overwritten by the
	// next Step call — copy it to retain it. This buffer reuse is what
	// makes steady-state streaming allocation-free.
	Step(x []float32) []float32
	// Reset clears the recurrent state (start of a new utterance).
	Reset()
}

// MatVec is one weight matrix bound to its y += W·x kernel: plain vectors
// for a serial stepper, bw-wide column-major panels (element i of lane l at
// panel[i*bw+l]) for a batch stepper. Each row's dot is rounded to float32
// once and then added to y — tensor.MatVecAdd's contract, which the bias
// staging in every stepper relies on.
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

// ReferenceKernels binds every projection to tensor.MatVecAdd(Batch) over
// the model's own dense weights with the exact epilogue: the training-side
// reference whose steps replay Forward's float operation order bit for bit.
func ReferenceKernels() Kernels {
	return Kernels{MatVec: func(p *Param, bw int) MatVec {
		w := p.W
		if bw == 1 {
			return func(y, x []float32) { tensor.MatVecAdd(y, w, x) }
		}
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

// stageTraced is implemented by steppers that record sub-layer stage spans
// (currently the GRU epilogue); Stream/BatchStream.SetTracer wires it.
type stageTraced interface {
	setStageTracer(tr *obs.Tracer, layerID int32)
}

// gruStream is a GRU cell's streaming state. The fused epilogue updates h
// in place, so the stepper owns no separate output buffer — one fewer
// H-sized copy per step than the historical unfused loop, with bit-equal
// results on the exact tier.
type gruStream struct {
	bx, bh []float32
	wx, wh MatVec
	h      []float32
	ax, ah []float32
	ep     func(h, ax, ah []float32)
	tracer *obs.Tracer
	layer  int32
}

// Stream returns a stateful reference stepper over this GRU's weights. The
// stepper shares weights with the layer (training would be visible) but
// owns its state.
func (g *GRU) Stream() Stepper { return g.stream(ReferenceKernels()) }

func (g *GRU) stream(k Kernels) Stepper {
	return &gruStream{
		bx: g.Bx.W.Data, bh: g.Bh.W.Data,
		wx: k.MatVec(g.Wx, 1), wh: k.MatVec(g.Wh, 1),
		h:  make([]float32, g.Hidden),
		ax: make([]float32, 3*g.Hidden),
		ah: make([]float32, 3*g.Hidden),
		ep: gruEpilogue(k.FastEpilogue),
	}
}

// Step implements Stepper.
func (s *gruStream) Step(x []float32) []float32 {
	copy(s.ax, s.bx)
	s.wx(s.ax, x)
	copy(s.ah, s.bh)
	s.wh(s.ah, s.h)
	if s.tracer != nil {
		t0 := time.Now()
		s.ep(s.h, s.ax, s.ah)
		s.tracer.RecordSince(obs.StageEpilogue, s.layer, 1, t0)
	} else {
		s.ep(s.h, s.ax, s.ah)
	}
	return s.h
}

// Reset implements Stepper.
func (s *gruStream) Reset() { tensor.ZeroVec(s.h) }

// setStageTracer implements stageTraced.
func (s *gruStream) setStageTracer(tr *obs.Tracer, layerID int32) {
	s.tracer, s.layer = tr, layerID
}

// lstmStream is an LSTM cell's streaming state.
type lstmStream struct {
	hidden int
	bx, bh []float32
	wx, wh MatVec
	h, c   []float32
	act    []float32
	out    []float32
}

// Stream returns a stateful reference stepper over this LSTM's weights.
func (l *LSTM) Stream() Stepper { return l.stream(ReferenceKernels()) }

func (l *LSTM) stream(k Kernels) Stepper {
	return &lstmStream{
		hidden: l.Hidden,
		bx:     l.Bx.W.Data, bh: l.Bh.W.Data,
		wx: k.MatVec(l.Wx, 1), wh: k.MatVec(l.Wh, 1),
		h:   make([]float32, l.Hidden),
		c:   make([]float32, l.Hidden),
		act: make([]float32, 4*l.Hidden),
		out: make([]float32, l.Hidden),
	}
}

// Step implements Stepper.
func (s *lstmStream) Step(x []float32) []float32 {
	H := s.hidden
	copy(s.act, s.bx)
	tensor.Axpy(1, s.bh, s.act)
	s.wx(s.act, x)
	s.wh(s.act, s.h)
	out := s.out
	for j := 0; j < H; j++ {
		i := sigmoid(s.act[j])
		f := sigmoid(s.act[H+j])
		g := tanh32(s.act[2*H+j])
		o := sigmoid(s.act[3*H+j])
		s.c[j] = f*s.c[j] + i*g
		out[j] = o * tanh32(s.c[j])
	}
	copy(s.h, out)
	return out
}

// Reset implements Stepper.
func (s *lstmStream) Reset() {
	tensor.ZeroVec(s.h)
	tensor.ZeroVec(s.c)
}

// denseStream steps a Dense layer (stateless, but it still owns a
// persistent output buffer so streaming stays allocation-free).
type denseStream struct {
	bias []float32
	w    MatVec
	out  []float32
}

// Stream returns a reference stepper over the Dense layer.
func (d *Dense) Stream() Stepper { return d.stream(ReferenceKernels()) }

func (d *Dense) stream(k Kernels) Stepper {
	return &denseStream{bias: d.Bias.W.Data, w: k.MatVec(d.Weight, 1),
		out: make([]float32, d.OutDimN)}
}

// Step implements Stepper.
func (s *denseStream) Step(x []float32) []float32 {
	y := s.out
	copy(y, s.bias)
	s.w(y, x)
	return y
}

// Reset implements Stepper.
func (s *denseStream) Reset() {}

// Stream is a stateful frame-by-frame pipeline over a whole model.
type Stream struct {
	steppers []Stepper
	// tracer, when non-nil, receives one StageLayer span per layer per
	// step. The nil check keeps the untraced hot loop branch-cheap.
	tracer *obs.Tracer
}

// SetTracer attaches (or detaches, with nil) a stage tracer. Each Step then
// records a per-layer timing span, and steppers with sub-layer stages (the
// GRU epilogue) record those too; the tracing path performs zero heap
// allocations, so a traced stream keeps the streaming allocation contract.
func (s *Stream) SetTracer(tr *obs.Tracer) {
	s.tracer = tr
	for i, st := range s.steppers {
		if et, ok := st.(stageTraced); ok {
			et.setStageTracer(tr, int32(i))
		}
	}
}

// NewStream builds the reference streaming pipeline over the model's dense
// weights (ReferenceKernels): what training-side code, the tests and the
// benchmark's oracle step. Panics if a layer type has no streaming form.
func (m *Model) NewStream() *Stream { return m.NewKernelStream(ReferenceKernels()) }

// NewKernelStream builds a streaming pipeline whose projections run the given
// kernels. The steppers keep the step order and the model's biases; only
// the y += W·x executors and the epilogue tier come from k.
func (m *Model) NewKernelStream(k Kernels) *Stream {
	s := &Stream{}
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *GRU:
			s.steppers = append(s.steppers, v.stream(k))
		case *LSTM:
			s.steppers = append(s.steppers, v.stream(k))
		case *Dense:
			s.steppers = append(s.steppers, v.stream(k))
		default:
			panic("nn: layer has no streaming form")
		}
	}
	return s
}

// Step pushes one frame through the stack and returns the logits. The
// returned slice is the last stepper's persistent buffer: it is valid
// until the next Step call, after which it is overwritten. Copy it to
// retain it across frames.
func (s *Stream) Step(x []float32) []float32 {
	if s.tracer != nil {
		return s.stepTraced(x)
	}
	out := x
	for _, st := range s.steppers {
		out = st.Step(out)
	}
	return out
}

// stepTraced is Step with one recorded span per layer (kept out of line so
// the untraced path stays a tight loop).
func (s *Stream) stepTraced(x []float32) []float32 {
	out := x
	for i, st := range s.steppers {
		t0 := time.Now()
		out = st.Step(out)
		s.tracer.RecordSince(obs.StageLayer, int32(i), 1, t0)
	}
	return out
}

// Reset clears all recurrent state (utterance boundary).
func (s *Stream) Reset() {
	for _, st := range s.steppers {
		st.Reset()
	}
}
