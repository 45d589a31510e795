package rtmobile

import (
	"fmt"
	"sync"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
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
// copies of the biases; the loaders keep the same three things. No engine
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
	// index). Lowered once at Compile (or once at load for bundles that
	// carry none) and serialized as-is by the v5 writer; a mapped engine's
	// programs alias file pages.
	progs []*compiler.PackedProgram

	// quant is the integer weight-quantization width (0 = float weights);
	// quantPERDelta / quantFallback record the accuracy guardrail's verdict
	// when DeployConfig.QuantGuardSet armed it (see compileQuantGuarded).
	quant         int
	quantPERDelta float64
	quantFallback bool

	// precision is the kernel tier the deployment executes under (exact is
	// the bit-pinned default; fast runs the FMA'd float32-accumulation
	// family). precPERDelta / precFallback record the fast-tier accuracy
	// guardrail's verdict when DeployConfig.PrecisionGuardSet armed it
	// (see compilePrecisionGuarded).
	precision    compiler.Precision
	precPERDelta float64
	precFallback bool

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

// lowerPrograms compiles and packs every prunable weight matrix of the
// model under the plan's options — the one lowering a deployment performs,
// one program per matrix: a GRU keeps Wx·x and Wh·h apart (the reset gate
// scales only the recurrent half).
func lowerPrograms(model *nn.Model, scheme prune.BSP, opt compiler.Options, threads int) ([]*compiler.PackedProgram, error) {
	srcs := ModelSources(model, scheme, opt.Format)
	progs := make([]*compiler.PackedProgram, 0, len(srcs))
	for _, src := range srcs {
		prog, err := compiler.CompileProgram(src, opt, threads)
		if err != nil {
			return nil, fmt.Errorf("rtmobile: %s: %w", src.Name, err)
		}
		pp, err := compiler.PackQuant(prog, opt.QuantBits, quant.PerRow)
		if err != nil {
			return nil, fmt.Errorf("rtmobile: %s: %w", src.Name, err)
		}
		progs = append(progs, pp)
	}
	return progs, nil
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
	// TuneMeasured: a search over host wall time. No writer produces it any
	// more (the tile never selected a host kernel, so the timing search was
	// deleted); it stays so that plan caches recorded by earlier versions
	// load and print as what they are.
	TuneMeasured
)

// TuneRecord is the engine's plan-cache entry: how the tile configuration
// was chosen and at what cost (cost-model units for TuneAnalytic, wall
// nanoseconds for a TuneMeasured record loaded from an older bundle).
// Persisted in bundles so a loaded deployment never re-tunes.
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
		if _, err := quant.QuantizeModelWeights(mats, bits, quant.PerRow); err != nil {
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

// denseModel rebuilds the dense model the programs were lowered from: the
// shell's params plus each program's Dense(). It is how an engine re-lowers
// (Requantize, Reprecision) without keeping a dense copy.
func (e *Engine) denseModel() *nn.Model {
	m := nn.NewModelShell(e.shell.Spec)
	own := e.shell.Params()
	for i, p := range m.Params() {
		if prog := e.program(p.Name); prog != nil {
			p.W = prog.Dense()
		} else {
			p.W.Data = append([]float32(nil), own[i].W.Data...)
		}
	}
	return m
}

// Quantized reports the deployment's integer weight quantization: bits is
// 0 for a float deployment. perDelta is the guardrail's measured PER
// difference (quantized − float32) when DeployConfig.QuantGuardSet armed
// it; fellBack reports that the guardrail rejected quantization and this
// engine serves float weights.
func (e *Engine) Quantized() (bits int, perDelta float64, fellBack bool) {
	return e.quant, e.quantPERDelta, e.quantFallback
}

// Precision reports the kernel tier the deployment executes under.
// perDelta is the fast-tier guardrail's measured PER difference
// (fast − exact) when DeployConfig.PrecisionGuardSet armed it; fellBack
// reports that the guardrail rejected the fast tier and this engine runs
// exact kernels.
func (e *Engine) Precision() (tier compiler.Precision, perDelta float64, fellBack bool) {
	return e.precision, e.precPERDelta, e.precFallback
}

// Requantize rebuilds the deployment at a different integer quantization
// width (0 = float weights), keeping the target, format, passes, tile
// configuration, and plan cache — the run/serve -quant override for a
// loaded bundle. The scheme must be the bundle's (it defines the BSPC
// grid). The receiver is not modified; the new engine is compiled from the
// weights the current programs hold, so narrowing is honest (widening
// cannot restore precision they no longer carry).
func (e *Engine) Requantize(bits int, scheme prune.BSP) (*Engine, error) {
	opts := e.plan.Options
	ne, err := Compile(e.denseModel(), scheme, DeployConfig{
		Target: e.target, Format: opts.Format,
		DisableReorder:  !opts.Reorder,
		DisableLoadElim: !opts.EliminateRedundantLoads,
		Quant:           bits, Tile: opts.Tile,
		Precision: e.precision,
	})
	if err != nil {
		return nil, err
	}
	ne.tuned = e.tuned
	return ne, nil
}

// Reprecision rebuilds the deployment on a different kernel tier, keeping
// the target, format, passes, quantization width, and tile configuration —
// the run/serve -precision override for a loaded bundle. Unlike
// Requantize, the plan cache is NOT carried over: a measured TuneRecord
// (older bundles carry them) prices one kernel family's wall time, so a
// tier change invalidates it, and the rebuilt engine reports TuneNone until
// a search is re-run (bundles saved from it record the reset, so a stale
// exact-tier verdict can never pin a fast-tier deployment's plan, or vice
// versa). Requesting the engine's current tier returns the receiver
// unchanged. The receiver is never modified.
func (e *Engine) Reprecision(tier compiler.Precision, scheme prune.BSP) (*Engine, error) {
	if !compiler.PrecisionValid(tier) {
		return nil, fmt.Errorf("rtmobile: unknown precision tier %d", tier)
	}
	if tier == e.precision {
		return e, nil
	}
	opts := e.plan.Options
	return Compile(e.denseModel(), scheme, DeployConfig{
		Target: e.target, Format: opts.Format,
		DisableReorder:  !opts.Reorder,
		DisableLoadElim: !opts.EliminateRedundantLoads,
		Quant:           e.quant, Tile: opts.Tile,
		Precision: tier,
	})
}

// Pool returns the worker pool serving requests use (the process default
// unless DeployConfig.Workers chose a dedicated size).
func (e *Engine) Pool() *parallel.Pool { return e.pool }

// SetWorkers resizes the engine's serving pool after construction —
// needed when the pool size is only known after LoadBundle (the CLI's
// run -workers flag). n <= 0 restores the process default. Not safe to
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
	track := m != nil || e.tracer != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	s := e.NewStream()
	out := e.shell.Spec.OutputDim
	post := make([][]float32, len(frames))
	flat := make([]float32, len(frames)*out)
	for t, f := range frames {
		post[t] = flat[t*out : (t+1)*out]
		s.StepInto(post[t], f)
	}
	if track {
		dur := time.Since(t0).Nanoseconds()
		if m != nil {
			m.InferTotal.IncAt(s.l.shard)
			m.InferLatency.Observe(dur)
		}
		if e.tracer != nil {
			e.tracer.Record(obs.StageInfer, 0, 1, t0.UnixNano(), dur)
		}
	}
	return post
}

// InferBatch scores independent utterances and returns their posteriors in
// input order. Utterances are grouped into lockstep panels (batch.go) so
// each weight matrix is streamed from memory once per step for a whole
// group, and the groups are sharded across the engine's worker pool.
// Output is bit-identical to calling Infer on each utterance serially
// (lanes never mix, so grouping changes layout, not summation order).
// Nil or empty batches return a same-length slice.
func (e *Engine) InferBatch(batch [][][]float32) [][][]float32 {
	out := make([][][]float32, len(batch))
	outDim := e.shell.Spec.OutputDim
	for i, u := range batch {
		rows := make([][]float32, len(u))
		flat := make([]float32, len(u)*outDim)
		for t := range rows {
			rows[t] = flat[t*outDim : (t+1)*outDim]
		}
		out[i] = rows
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
// until Reset. Its steps meter the stream family (StepsTotal, StepLatency,
// StageStep spans) where a leased panel meters the batch family.
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
