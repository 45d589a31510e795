package nn

import (
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/tensor"
)

// The steppers: B independent utterance streams advanced in lockstep over
// column-major state panels (element i of stream l at panel[i*bw+l]), so
// every weight matrix is streamed once per step for the whole batch instead
// of once per stream. Width 1 is the live single stream (a vector is a
// width-1 panel). Lane l of every panel is bit-identical to Forward on lane
// l's frames at any width: each lane sees Forward's float operation order
// (bias, then the panel matvec whose per-lane accumulation matches
// MatVecAdd, then the same element-wise gate math), and lanes never mix —
// batch width changes data layout, not summation order.

// BatchStepper is a layer that advances B independent streams in lockstep.
type BatchStepper interface {
	// StepBatch consumes one bw-wide input panel and returns the layer's
	// output panel. The returned slice is owned by the stepper and is
	// overwritten by the next call — copy to retain.
	StepBatch(x []float32) []float32
	// Reset clears the recurrent state of every lane.
	Reset()
	// ResetLane clears lane l's recurrent state only (a new utterance
	// entering a serving slot whose neighbors keep streaming).
	ResetLane(l int)
	// CopyLaneTo copies lane l's recurrent state, bit for bit, into lane dl
	// of dst — the same layer's stepper at any width (an utterance moving
	// between panels of different shapes mid-flight).
	CopyLaneTo(dst BatchStepper, dl, l int)
}

// broadcastRows stages a per-element vector across all lanes of a panel:
// dst[i*bw+l] = src[i] for every lane l.
func broadcastRows(dst, src []float32, bw int) {
	for i, v := range src {
		row := dst[i*bw : (i+1)*bw]
		for l := range row {
			row[l] = v
		}
	}
}

// biasStaging returns a width-bw stepper's bias staging.
// A width-1 panel is the vector itself and is staged in bulk — the lane loop
// there costs the live stream 10 µs a step (DESIGN.md, "Why the serial stream
// is the width-1 panel"). Chosen here, once, and not by a width test inside
// the lane loops' functions, which would change how those compile (+12 µs on
// an eight-wide step).
func biasStaging(bw int) func(dst, src []float32, bw int) {
	if bw == 1 {
		return func(dst, src []float32, _ int) { copy(dst, src) }
	}
	return broadcastRows
}

// zeroLane clears lane l of an n-element state panel.
func zeroLane(panel []float32, n, bw, l int) {
	for i := 0; i < n; i++ {
		panel[i*bw+l] = 0
	}
}

// copyLane copies lane l of an n-element, bw-wide state panel into lane dl
// of a dbw-wide one.
func copyLane(dst []float32, dbw, dl int, src []float32, bw, l, n int) {
	for i := 0; i < n; i++ {
		dst[i*dbw+dl] = src[i*bw+l]
	}
}

// gruBatchStream is a GRU cell's batched streaming state. The column-major
// [3H × bw] gate panels flattened row-major are exactly the [z | r | c]
// layout tensor.GRUEpilogue expects with n = H·bw, so one fused call blends
// the whole panel — element (i, l) sees the same float operations as the
// historical per-row lane loop, keeping lane/serial bit-identity.
type gruBatchStream struct {
	hidden int
	bw     int
	bx, bh []float32
	wx, wh MatVec
	h      []float32
	ax, ah []float32
	stage  func(dst, src []float32, bw int)
	tracer *obs.Tracer
	layer  int32
}

// batchStream returns a stepper advancing bw independent streams over this
// GRU's (shared, read-only) weights.
func (g *GRU) batchStream(bw int, k Kernels) BatchStepper {
	stage := biasStaging(bw)
	return &gruBatchStream{
		stage:  stage,
		hidden: g.Hidden,
		bw:     bw,
		bx:     g.Bx.W.Data, bh: g.Bh.W.Data,
		wx: k.MatVec(g.Wx, bw), wh: k.MatVec(g.Wh, bw),
		h:  make([]float32, g.Hidden*bw),
		ax: make([]float32, 3*g.Hidden*bw),
		ah: make([]float32, 3*g.Hidden*bw),
	}
}

// StepBatch implements BatchStepper.
func (s *gruBatchStream) StepBatch(x []float32) []float32 {
	bw := s.bw
	s.stage(s.ax, s.bx, bw)
	s.wx(s.ax, x)
	s.stage(s.ah, s.bh, bw)
	s.wh(s.ah, s.h)
	if s.tracer != nil {
		t0 := time.Now()
		tensor.GRUEpilogue(s.h, s.ax, s.ah)
		s.tracer.RecordSince(obs.StageEpilogue, s.layer, t0)
	} else {
		tensor.GRUEpilogue(s.h, s.ax, s.ah)
	}
	return s.h
}

// Reset implements BatchStepper.
func (s *gruBatchStream) Reset() { tensor.ZeroVec(s.h) }

// ResetLane implements BatchStepper.
func (s *gruBatchStream) ResetLane(l int) { zeroLane(s.h, s.hidden, s.bw, l) }

// CopyLaneTo implements BatchStepper.
func (s *gruBatchStream) CopyLaneTo(dst BatchStepper, dl, l int) {
	d := dst.(*gruBatchStream)
	copyLane(d.h, d.bw, dl, s.h, s.bw, l, s.hidden)
}

// setStageTracer implements stageTraced.
func (s *gruBatchStream) setStageTracer(tr *obs.Tracer, layerID int32) {
	s.tracer, s.layer = tr, layerID
}

// denseBatchStream steps a Dense layer over panels (stateless; the
// persistent output panel keeps steady-state streaming allocation-free).
type denseBatchStream struct {
	bias  []float32
	w     MatVec
	bw    int
	out   []float32
	stage func(dst, src []float32, bw int)
}

func (d *Dense) batchStream(bw int, k Kernels) BatchStepper {
	stage := biasStaging(bw)
	return &denseBatchStream{
		stage: stage,
		bias:  d.Bias.W.Data, w: k.MatVec(d.Weight, bw), bw: bw,
		out: make([]float32, d.OutDimN*bw),
	}
}

// StepBatch implements BatchStepper.
func (s *denseBatchStream) StepBatch(x []float32) []float32 {
	y := s.out
	s.stage(y, s.bias, s.bw)
	s.w(y, x)
	return y
}

// Reset implements BatchStepper.
func (s *denseBatchStream) Reset() {}

// ResetLane implements BatchStepper.
func (s *denseBatchStream) ResetLane(int) {}

// CopyLaneTo implements BatchStepper.
func (s *denseBatchStream) CopyLaneTo(BatchStepper, int, int) {}

// BatchStream is a stateful lockstep pipeline advancing bw streams through
// a whole model. Lane retirement handles ragged batches: Retire(l) marks a
// lane's output meaningless without stopping the lockstep — retired lanes
// keep computing on whatever input their panel column holds, which cannot
// perturb the other lanes because lanes never mix (every kernel accumulates
// strictly within a lane column). Callers simply stop reading retired
// columns; ResetLane re-arms a column for a fresh utterance.
type BatchStream struct {
	steppers []BatchStepper
	bw       int
	active   []bool
	// tracer, when non-nil, totals one StageLayer execution per layer per
	// lockstep step.
	tracer *obs.Tracer
}

// SetTracer attaches (or detaches, with nil) a stage tracer recording
// per-layer panel timings plus sub-layer stages (the GRU epilogue).
// Allocation-free when tracing.
func (s *BatchStream) SetTracer(tr *obs.Tracer) {
	s.tracer = tr
	for i, st := range s.steppers {
		if et, ok := st.(stageTraced); ok {
			et.setStageTracer(tr, int32(i))
		}
	}
}

// NewBatchStream builds the reference lockstep pipeline of width bw over
// the model's dense weights (ReferenceKernels). Panics if bw < 1 or a layer
// type has no streaming form.
func (m *Model) NewBatchStream(bw int) *BatchStream {
	return m.NewKernelBatchStream(bw, ReferenceKernels())
}

// NewKernelBatchStream is NewBatchStream over the given kernels: the steppers
// keep the step order and the model's biases; only the y += W·x executors
// (k.MatVec is asked for bw-wide panel kernels) and the epilogue tier come
// from k.
func (m *Model) NewKernelBatchStream(bw int, k Kernels) *BatchStream {
	if bw < 1 {
		panic("nn: batch width must be >= 1")
	}
	s := &BatchStream{bw: bw, active: make([]bool, bw)}
	for l := range s.active {
		s.active[l] = true
	}
	for _, layer := range m.Layers {
		switch v := layer.(type) {
		case *GRU:
			s.steppers = append(s.steppers, v.batchStream(bw, k))
		case *Dense:
			s.steppers = append(s.steppers, v.batchStream(bw, k))
		default:
			panic("nn: layer has no streaming form")
		}
	}
	return s
}

// Width reports the stream's batch width.
func (s *BatchStream) Width() int { return s.bw }

// StepBatch pushes one input panel through the stack and returns the
// logits panel (the last stepper's persistent buffer — valid until the
// next call). Lane l is bit-identical to Forward on lane l's frames.
func (s *BatchStream) StepBatch(x []float32) []float32 {
	if s.tracer != nil {
		return s.stepBatchTraced(x)
	}
	out := x
	for _, st := range s.steppers {
		out = st.StepBatch(out)
	}
	return out
}

// stepBatchTraced is StepBatch with each layer's time recorded.
func (s *BatchStream) stepBatchTraced(x []float32) []float32 {
	out := x
	for i, st := range s.steppers {
		t0 := time.Now()
		out = st.StepBatch(out)
		s.tracer.RecordSince(obs.StageLayer, int32(i), t0)
	}
	return out
}

// Reset clears every lane's recurrent state and re-activates all lanes.
func (s *BatchStream) Reset() {
	for _, st := range s.steppers {
		st.Reset()
	}
	for l := range s.active {
		s.active[l] = true
	}
}

// ResetLane clears lane l's recurrent state and re-activates it.
func (s *BatchStream) ResetLane(l int) {
	for _, st := range s.steppers {
		st.ResetLane(l)
	}
	s.active[l] = true
}

// Retire marks lane l's outputs meaningless (its utterance ended). The
// lockstep keeps computing the column; callers stop reading it.
func (s *BatchStream) Retire(l int) { s.active[l] = false }

// CopyLaneTo copies lane l — every layer's recurrent state and the active
// flag — into lane dl of dst, a stream over the same model at any width.
// State moves bit for bit and lanes never mix, so the utterance continues
// in dst exactly as it would have here.
func (s *BatchStream) CopyLaneTo(dst *BatchStream, dl, l int) {
	for i, st := range s.steppers {
		st.CopyLaneTo(dst.steppers[i], dl, l)
	}
	dst.active[dl] = s.active[l]
}

// Active reports whether lane l currently carries a live utterance.
func (s *BatchStream) Active(l int) bool { return s.active[l] }
