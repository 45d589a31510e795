package rtmobile

import (
	"sync"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// Engine is a deployed model: functional inference plus the target's
// performance model. Infer produces real posteriors (so accuracy after
// pruning and fp16 quantization is measurable); Latency/GOPs/Efficiency
// report the cost model's per-frame predictions for the compiled plan.
//
// Every inference entry point executes the compiled packed programs: nn's
// steppers keep the step order (bias, projections, gate epilogue) and each
// projection runs its weight matrix's compiler.PackedProgram. On
// the exact tier with float weights that is bit-identical to
// nn.Posteriors(model.Forward(..)) — the programs keep tensor.MatVecAdd's
// per-row order (see compiler.PackedProgram.RunAdd) — with one caveat: a
// pruned weight times a non-finite input is 0·Inf = NaN in the dense
// reference and skipped by the program.
//
// Ownership rule: an engine holds its spec, its biases and its programs,
// and nothing else. Compile rounds the caller's model in place (fp16 or
// integer, so nn.Forward on it stays the reference), lowers it, and keeps
// copies of the biases; MapBundle keeps the same three things. No engine
// points at a trainable model, so changing the caller's weights after
// Compile changes nothing the engine serves. The engine's state is
// read-only — every inference entry point (Infer, InferBatch, NewStream)
// allocates its own recurrent state and scratch — so one Engine may serve
// any number of goroutines concurrently.
type Engine struct {
	// shell is the model's layer stack with shape-only params
	// (nn.NewModelShell): only the params no program covers — the biases,
	// and a 1-wide matrix — hold storage.
	shell  *nn.Model
	plan   *compiler.Plan
	target *device.Target
	pool   *parallel.Pool
	fp16   bool
	tuned  TuneRecord

	// progs holds one executable program per prunable weight matrix, under
	// the parameter's name, in ModelSources order (position = plan matrix
	// index). Lowered once at Compile and serialized as-is by the v5
	// writer; a mapped engine's programs alias file pages.
	progs []*compiler.PackedProgram

	// quant is the integer weight-quantization width (0 = float weights);
	// precision is the kernel tier the deployment executes under (exact is
	// the bit-pinned default; fast runs the FMA'd float32-accumulation
	// family).
	quant     int
	precision compiler.Precision

	// Released panel sessions, keyed by width (see batch.go). Guarded by
	// batchMu so concurrent InferBatch calls can share the free list.
	batchMu   sync.Mutex
	batchFree []*BatchLease

	// stepMACs is the plan-priced MAC count of one timestep, precomputed
	// at Compile so streams can meter obs MACsTotal without touching the
	// plan per step; stepBytes is the plan-priced weight+index traffic of
	// one timestep (Plan.WeightBytes — shrunk by quantization), metering
	// obs BytesStreamed the same way. tracer is the opt-in stage tracer
	// (see obs.go).
	stepMACs  uint64
	stepBytes uint64
	tracer    *obs.Tracer
}

// program returns the named weight matrix's program, or nil.
func (e *Engine) program(name string) *compiler.PackedProgram { return programFor(e.progs, name) }

func programFor(progs []*compiler.PackedProgram, name string) *compiler.PackedProgram {
	for _, p := range progs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// kernels binds nn's steppers to the engine's programs. scratch is the
// opening session's private gather/accumulator arena, shared by all of its
// programs (they run one after another). A program's run entries only fail
// on a shape mismatch, which Compile and the bundle loaders rule out, so a
// failure here is a bug and panics like tensor.MatVecAdd does.
func (e *Engine) kernels(scratch *compiler.PackedScratch) nn.Kernels {
	return nn.Kernels{
		FastEpilogue: e.precision == compiler.PrecisionFast,
		MatVec: func(p *nn.Param, bw int) nn.MatVec {
			prog := e.program(p.Name)
			if prog == nil {
				// A 1-wide "matrix" (InputDim or OutputDim of 1) is not
				// prunable and has no program; it is a plain dot.
				return nn.ReferenceKernels().MatVec(p, bw)
			}
			return func(y, x []float32) {
				if err := prog.RunBatchAdd(y, x, bw, scratch); err != nil {
					panic(err)
				}
			}
		},
	}
}

// TuneMode records how an engine's tile configuration was chosen.
type TuneMode uint8

const (
	// TuneNone: defaults or an explicit DeployConfig.Tile; no search ran.
	TuneNone TuneMode = iota
	// TuneAnalytic: TuneTiling over the target's analytic cost model.
	TuneAnalytic
)

// TuneRecord is the engine's plan-cache entry: how the tile configuration
// was chosen and at what cost (cost-model units). Persisted in bundles so a
// served deployment never re-tunes.
type TuneRecord struct {
	Mode TuneMode
	Cost float64
}

// Tuned reports the engine's plan-cache entry (Mode is TuneNone when no
// auto-tuning search produced the current tile configuration).
func (e *Engine) Tuned() TuneRecord { return e.tuned }

// roundWeights applies the deployment's weight rounding to model in place:
// integer quantization of every prunable matrix (symmetric, per row) at
// width bits, then fp16 rounding of every parameter — a quantized
// deployment stores int weights and dequantizes into the target's compute
// width. Compile lowers the programs from the result, so nn.Forward on it
// scores exactly the numbers the engine produces.
func roundWeights(model *nn.Model, bits int, fp16 bool) error {
	if bits != 0 {
		var mats []*tensor.Matrix
		for _, p := range model.WeightMatrices() {
			mats = append(mats, p.W)
		}
		if err := quant.QuantizeModelWeights(mats, bits, quant.PerRow); err != nil {
			return err
		}
	}
	if fp16 {
		for _, p := range model.Params() {
			tensor.QuantizeHalf(p.W)
		}
	}
	return nil
}

// shellOf returns the engine's shell for model: a shape-only shell of its
// spec holding copies of the params no program covers.
func shellOf(model *nn.Model, progs []*compiler.PackedProgram) *nn.Model {
	shell := nn.NewModelShell(model.Spec)
	src := model.Params()
	for i, p := range shell.Params() {
		if programFor(progs, p.Name) == nil {
			p.W.Data = append([]float32(nil), src[i].W.Data...)
		}
	}
	return shell
}

// denseOf rebuilds the dense model programs were lowered from: a shell of
// own's spec whose params hold each covering program's Dense(), or else a
// copy of own's storage. It is how a deployment is lowered again without
// any engine keeping a dense copy (ReadBundle).
func denseOf(own *nn.Model, progs []*compiler.PackedProgram) *nn.Model {
	m := nn.NewModelShell(own.Spec)
	src := own.Params()
	for i, p := range m.Params() {
		if prog := programFor(progs, p.Name); prog != nil {
			p.W = prog.Dense()
		} else {
			p.W.Data = append([]float32(nil), src[i].W.Data...)
		}
	}
	return m
}

// Quantized reports the deployment's integer weight quantization width: 0
// for a float deployment.
func (e *Engine) Quantized() int { return e.quant }

// Precision reports the kernel tier the deployment executes under.
func (e *Engine) Precision() compiler.Precision { return e.precision }

// Pool returns the worker pool serving requests use (the process default
// unless SetWorkers chose a dedicated size).
func (e *Engine) Pool() *parallel.Pool { return e.pool }

// SetWorkers sizes the engine's serving pool (the CLI's run and serve
// -workers flag). n <= 0 restores the process default. Not safe to
// call concurrently with in-flight InferBatch requests.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		e.pool = parallel.Default()
		return
	}
	e.pool = parallel.NewPool(n)
}

// Infer runs one utterance through the deployed model and returns per-frame
// phone posteriors. On the fp16 path activations are also rounded through
// half precision at the model boundary.
//
// The call owns all mutable state (it steps a private stream over the
// shared programs, row by row into one posteriors arena), so concurrent
// Infer calls on one Engine are safe and each produces exactly the bytes a
// solo call would. The layer steppers replay the batch Forward pass's float
// operation order and the exact-tier float programs keep the dense per-row
// order, so those results are also bit-identical to the training-side
// Forward. The heap cost of a call is a fixed handful of allocations per
// utterance — zero per timestep, however long the audio runs.
func (e *Engine) Infer(frames [][]float32) [][]float32 {
	m := obs.M()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	l := e.newSession(1, true)
	post := e.postRows(len(frames))
	l.infer(post, frames)
	if m != nil {
		m.InferTotal.IncAt(l.shard)
		m.InferLatency.Observe(time.Since(t0).Nanoseconds())
	}
	return post
}

// postRows allocates n posterior rows over one flat arena.
func (e *Engine) postRows(n int) [][]float32 {
	out := e.shell.Spec.OutputDim
	rows := make([][]float32, n)
	flat := make([]float32, n*out)
	for t := range rows {
		rows[t] = flat[t*out : (t+1)*out]
	}
	return rows
}

// InferBatch scores independent utterances and returns their posteriors in
// input order. Each utterance runs on its own width-1 session, the loop
// Infer runs, and above the fork-join break-even the utterances are
// sharded across the engine's worker pool (batch.go). Output is
// bit-identical to calling Infer on each utterance serially. Nil or empty
// batches return a same-length slice.
func (e *Engine) InferBatch(batch [][][]float32) [][][]float32 {
	out := make([][][]float32, len(batch))
	for i, u := range batch {
		out[i] = e.postRows(len(u))
	}
	e.InferBatchInto(out, batch)
	return out
}

// Stream is a stateful frame-by-frame inference session over a deployed
// engine — the live-microphone path the paper's real-time claim is about. It
// is the width-1 face of the engine's one session type (BatchLease, see
// batch.go): a frame and its posterior are width-1 panels, so a Stream steps
// the caller's own vectors. One goroutine per Stream; the engine weights
// underneath stay shared and read-only.
type Stream struct{ l *BatchLease }

// softmaxTier selects the posterior softmax for a deployment's kernel
// tier: exact deployments keep the bit-pinned float64-accumulation
// normalize, fast deployments run tensor.SoftmaxFast (vectorized exp,
// float32 sum — tolerance-verified, see tensor.FastSoftmaxTol).
func softmaxTier(fast bool) func(dst, src []float32) {
	if fast {
		return tensor.SoftmaxFast
	}
	return tensor.Softmax
}

// NewStream opens a streaming session. State persists across Step calls
// until Reset. Its steps meter the stream family (StepsTotal, StepLatency)
// where a leased panel meters the batch family.
func (e *Engine) NewStream() *Stream { return &Stream{l: e.newSession(1, true)} }

// Step consumes one feature frame and returns the phone posterior for it.
// The returned slice is freshly allocated and owned by the caller; use
// StepInto for the allocation-free variant.
func (s *Stream) Step(frame []float32) []float32 {
	post := make([]float32, len(s.l.post))
	s.l.step(post, frame)
	return post
}

// StepInto consumes one feature frame and writes the phone posterior into
// dst, which must have the model's output width. Steady-state StepInto
// performs zero heap allocations — with metrics and tracing enabled too —
// the real-time inner loop the packed backend exists for.
func (s *Stream) StepInto(dst []float32, frame []float32) { s.l.step(dst, frame) }

// Reset clears recurrent state at an utterance boundary.
func (s *Stream) Reset() { s.l.inner.Reset() }

// Plan exposes the compiled execution plan.
func (e *Engine) Plan() *compiler.Plan { return e.plan }

// InputDim reports the model's per-frame feature width.
func (e *Engine) InputDim() int { return e.shell.Spec.InputDim }

// OutputDim reports the model's phone-posterior width.
func (e *Engine) OutputDim() int { return e.shell.Spec.OutputDim }

// Target exposes the deployment target.
func (e *Engine) Target() *device.Target { return e.target }

// Latency returns the per-frame latency breakdown on the target.
func (e *Engine) Latency() device.Latency { return e.target.Latency(e.plan) }

// GOP returns Giga-operations per inference frame (Table II's GOP column).
func (e *Engine) GOP() float64 { return e.plan.GOP() }

// GOPs returns achieved Giga-operations per second (Table II's GOP/s).
func (e *Engine) GOPs() float64 { return e.target.GOPs(e.plan) }

// EfficiencyVsESE returns energy efficiency normalized to the ESE FPGA
// reference (Table II's energy-efficiency columns).
func (e *Engine) EfficiencyVsESE() float64 {
	var ese device.ESE
	return ese.NormalizedEfficiency(e.target.PowerWatts, e.Latency().TotalUS)
}

// Report returns the target's energy/duty-cycle report for this
// deployment (absolute energy per frame, continuous-recognition average
// power, and the dominant latency term).
func (e *Engine) Report() device.EnergyReport { return e.target.Report(e.plan) }

// RealTimeFactor returns audio-seconds processed per wall-clock second
// under the cost model: one frame covers TimestepsPerFrame × 10 ms of
// audio. Values above 1 mean faster than real time — the paper's headline
// claim.
func (e *Engine) RealTimeFactor() float64 {
	lat := e.Latency().TotalUS
	if lat <= 0 {
		return 0
	}
	frameAudioUS := float64(TimestepsPerFrame) * 10_000
	return frameAudioUS / lat
}
