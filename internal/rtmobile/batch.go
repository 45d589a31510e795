package rtmobile

import (
	"runtime"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// The engine's one session type, and the offline batch path on top of it.
// A session is a panel of utterance slots stepped in lockstep; a serving
// tier (internal/sched) leases panels and handles ragged requests by lane
// retirement: a lane whose utterance ended keeps lockstepping on its last
// input (lanes are fully independent, so this cannot perturb the live
// lanes) and its output column simply stops being read. InferBatch opens no
// panel: it scores every utterance on its own width-1 session, the loop
// Infer runs. A ragged batch's panel steps until its longest utterance ends,
// and the arithmetic its retired lanes waste outweighs the weight reuse at
// every model size measured (DESIGN.md, "Why exactly two shapes").

// MaxBatchWidth bounds the panel width a serving tier leases: the range of
// serve -max-batch, and so the widest panel internal/sched opens.
const MaxBatchWidth = 32

// maxFreeArenas bounds the engine's free list of released sessions.
const maxFreeArenas = 16

// forkJoinBreakEvenMACs is the fork-join break-even: below this many
// multiply-accumulates per worker, handing utterances to the pool costs
// more than the arithmetic saves, so InferBatchInto scores them on the
// caller instead (bit-identical either way). Sized so single-utterance
// and small-batch calls stay inline while long batches still fan out. A
// variable only so tests can force the sharded path on small models: 0
// disables the cutoff.
var forkJoinBreakEvenMACs = 1 << 18

// forkJoinWorthwhile reports whether work MACs spread over workers clears
// the break-even. A machine without a second CPU never forks.
func forkJoinWorthwhile(work, workers int) bool {
	if forkJoinBreakEvenMACs <= 0 {
		return true
	}
	return runtime.GOMAXPROCS(0) >= 2 && work/workers >= forkJoinBreakEvenMACs
}

// BatchLease is the engine's one inference session: bw utterance slots
// advanced in lockstep over the compiled programs (bw == 1 is the live
// single stream, which Stream wraps, and what Infer and InferBatch score
// each utterance on). It owns all mutable state — the layer panels, the
// fp16 staging panel, the softmax staging rows, its In/Out panels — so one
// goroutine per session; the engine weights underneath stay shared and
// read-only. Lane l of every output panel is bit-identical to Infer on
// lane l's frames at any width.
//
// As a lease it is what external serving tiers (internal/sched) drive: the
// caller fills the input panel column-major, Steps, and reads the posterior
// panel, with ResetLane/Retire managing lane occupancy across ragged
// utterances. It satisfies sched.Session structurally. Release returns it to
// the engine's width-keyed free list, so steady-state acquire/release cycles
// at a stable width perform zero heap allocations.
type BatchLease struct {
	e     *Engine
	inner *nn.BatchStream
	in    []float32
	post  []float32
	// qbuf stages the input panel rounded through half precision (nil on
	// float32 targets); lane and row stage one lane's logits and posteriors
	// for the softmax.
	qbuf, lane, row []float32
	// shard is the session's stable counter-stripe hint (one atomic stripe
	// per session keeps concurrent sessions off each other's cache lines);
	// tracer is the engine tracer captured at open time (nil = untraced
	// fast path); it only decides whether steps are timed for lastStepNs,
	// as the layers inside record into it themselves. solo marks a session
	// opened by NewStream, whose steps meter the stream family instead of
	// the batch family.
	shard  uint32
	solo   bool
	tracer *obs.Tracer
	// lastStepNs is the wall time of the most recent step, captured only
	// when the step is already being timed for metrics or stage tracing (0
	// otherwise) — see LastStepNs.
	lastStepNs int64
}

// newSession builds a width-bw session with every lane reset and active.
func (e *Engine) newSession(bw int, solo bool) *BatchLease {
	in, out := e.shell.Spec.InputDim, e.shell.Spec.OutputDim
	l := &BatchLease{
		e:      e,
		inner:  e.shell.NewKernelBatchStream(bw, e.kernels(&compiler.PackedScratch{})),
		in:     make([]float32, in*bw),
		post:   make([]float32, out*bw),
		lane:   make([]float32, out),
		row:    make([]float32, out),
		shard:  obs.NextShard(),
		solo:   solo,
		tracer: e.tracer,
	}
	if e.fp16 {
		l.qbuf = make([]float32, in*bw)
	}
	if e.tracer != nil {
		l.inner.SetTracer(e.tracer)
	}
	return l
}

// step advances every lane one frame: it consumes one column-major input
// panel (element i of lane k at panel[i*bw+k]) and writes per-lane phone
// posteriors into dst in the same layout. On the fp16 path the whole input
// panel is rounded through half precision — element-wise, so each lane sees
// the same rounding at any width. Retired lanes are skipped — their dst
// columns are left untouched. Zero heap allocations, with metrics and
// tracing enabled too (the observability writes are all fixed-size atomics).
//
// This is the one place work counters are metered (the programs record only
// kernel latency and kernel totals), at the engine's plan-priced
// per-timestep MACs and weight traffic. The lockstep executes bw lanes'
// worth of arithmetic every step (retired lanes keep computing), so
// MACsTotal advances by bw×stepMACs; BytesStreamed is NOT scaled by bw: the
// panel shares one weight stream per step — the amortization batching
// exists for.
func (l *BatchLease) step(dst, panel []float32) {
	m := obs.M()
	track := m != nil || l.tracer != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	in := panel
	if l.qbuf != nil {
		in = l.qbuf[:len(panel)]
		copy(in, panel)
		tensor.QuantizeHalfVec(in)
	}
	logits := l.inner.StepBatch(in)
	bw, live, lane, row := l.inner.Width(), 0, l.lane, l.row
	for k := 0; k < bw; k++ {
		if !l.inner.Active(k) {
			continue
		}
		live++
		for i := range lane {
			lane[i] = logits[i*bw+k]
		}
		tensor.Softmax(row, lane)
		for i, v := range row {
			dst[i*bw+k] = v
		}
	}
	if track {
		dur := time.Since(t0).Nanoseconds()
		l.lastStepNs = dur
		if m != nil {
			if l.solo {
				m.StepsTotal.IncAt(l.shard)
				m.StepLatency.Observe(dur)
			} else {
				m.BatchStepsTotal.IncAt(l.shard)
				m.BatchLanesTotal.AddAt(l.shard, uint64(live))
				m.BatchStepLatency.Observe(dur)
			}
			m.FramesTotal.AddAt(l.shard, uint64(live))
			m.MACsTotal.AddAt(l.shard, uint64(bw)*l.e.stepMACs)
			m.BytesStreamed.AddAt(l.shard, l.e.stepBytes)
		}
	}
}

// AcquireBatch leases a width-bw session with every lane reset and active,
// popped off the free list or built. Pops and builds are metered as obs
// arena hits and misses, making the steady-state zero-allocation claim
// observable: a serving loop at a stable batch shape shows misses flat while
// hits climb.
func (e *Engine) AcquireBatch(bw int) *BatchLease {
	e.batchMu.Lock()
	for i := len(e.batchFree) - 1; i >= 0; i-- {
		if l := e.batchFree[i]; l.Width() == bw {
			last := len(e.batchFree) - 1
			e.batchFree[i] = e.batchFree[last]
			e.batchFree[last] = nil
			e.batchFree = e.batchFree[:last]
			e.batchMu.Unlock()
			if m := obs.M(); m != nil {
				m.ArenaHits.Inc()
			}
			l.inner.Reset()
			return l
		}
	}
	e.batchMu.Unlock()
	if m := obs.M(); m != nil {
		m.ArenaMisses.Inc()
	}
	return e.newSession(bw, false)
}

// In returns the input panel (InputDim × width, element i of lane k at
// In()[i*width+k]).
func (l *BatchLease) In() []float32 { return l.in }

// Out returns the posterior panel (OutputDim × width), valid after Step.
func (l *BatchLease) Out() []float32 { return l.post }

// Width reports the session's panel width.
func (l *BatchLease) Width() int { return l.inner.Width() }

// Step advances every lane one frame: posteriors for live lanes land in
// Out, retired lanes' columns are left untouched.
func (l *BatchLease) Step() { l.step(l.post, l.in) }

// LastStepNs reports the measured wall time of the most recent Step (0
// when neither metrics nor stage tracing is timing steps). Request traces
// use it to attribute kernel time without an extra clock read.
func (l *BatchLease) LastStepNs() int64 { return l.lastStepNs }

// ResetLane clears lane i's recurrent state and re-activates it — a new
// utterance entering a serving slot whose neighbors keep streaming.
func (l *BatchLease) ResetLane(i int) { l.inner.ResetLane(i) }

// Retire marks lane i's outputs meaningless (its utterance ended); the
// lockstep keeps computing the column but Step stops writing it.
func (l *BatchLease) Retire(i int) { l.inner.Retire(i) }

// CopyLaneTo copies lane i's recurrent state and active flag into lane di
// of dst, a lease of the same engine at any width — how a serving tier
// moves an utterance between panel shapes mid-flight. Posteriors already
// read out of Out are not carried; the next Step of dst produces lane di's
// next row exactly as this lease would have.
func (l *BatchLease) CopyLaneTo(dst *BatchLease, di, i int) { l.inner.CopyLaneTo(dst.inner, di, i) }

// Release returns the session to the engine's free list (dropped if the
// list is full). The lease must not be used afterwards.
func (l *BatchLease) Release() {
	e := l.e
	e.batchMu.Lock()
	if len(e.batchFree) < maxFreeArenas {
		e.batchFree = append(e.batchFree, l)
	}
	e.batchMu.Unlock()
}

// infer scores one utterance on the width-1 session l, writing frame t's
// posterior into dst[t]: Reset, then one step per frame, straight from the
// caller's frame into the caller's row. It is the per-utterance loop of
// Infer and InferBatchInto.
func (l *BatchLease) infer(dst, frames [][]float32) {
	l.inner.Reset()
	for t, f := range frames {
		l.step(dst[t], f)
	}
}

// checkBatch validates InferBatchInto's arguments before a single frame is
// scored — dst mirrors batch, every frame is InputDim wide and every
// posterior row OutputDim wide — and returns the batch's frame count.
func (e *Engine) checkBatch(dst, batch [][][]float32) (frames int) {
	if len(dst) != len(batch) {
		panic("rtmobile: InferBatchInto dst/batch length mismatch")
	}
	in, out := e.InputDim(), e.OutputDim()
	for i, u := range batch {
		if len(dst[i]) != len(u) {
			panic("rtmobile: InferBatchInto dst/batch frame count mismatch")
		}
		for t, f := range u {
			if len(f) != in {
				panic("rtmobile: InferBatchInto frame width is not InputDim")
			}
			if len(dst[i][t]) != out {
				panic("rtmobile: InferBatchInto dst row width is not OutputDim")
			}
		}
		frames += len(u)
	}
	return frames
}

// InferBatchInto scores independent utterances, each on its own width-1
// session, writing per-frame posteriors into dst. dst must mirror batch's
// shape: dst[i] has one row per frame of batch[i], each row the model's
// output width, and every frame must have the model's input width; a
// misshapen argument panics before any frame is scored. Steady-state calls
// below the fork-join break-even perform zero heap allocations — one
// session off the free list scores the whole batch; above it the
// utterances are sharded across the pool, whose fork-join costs a handful
// of allocations per call, amortized over at least forkJoinBreakEvenMACs of
// arithmetic per worker.
//
// Output is bit-identical to calling Infer on each utterance serially: it
// is the same loop on the same session shape.
func (e *Engine) InferBatchInto(dst, batch [][][]float32) {
	n := len(batch)
	if n == 0 {
		return
	}
	frames := e.checkBatch(dst, batch)
	pool := e.pool
	if pool == nil {
		pool = parallel.Default()
	}
	m := obs.M()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	workers := pool.Workers()
	if n > 1 && workers > 1 && forkJoinWorthwhile(int(e.stepMACs)*frames, workers) {
		pool.For(n, func(i int) {
			l := e.AcquireBatch(1)
			l.infer(dst[i], batch[i])
			l.Release()
		})
	} else {
		// Inline loop instead of pool.For: the closure-free path is what
		// keeps steady-state serving at zero allocations.
		l := e.AcquireBatch(1)
		for i, u := range batch {
			l.infer(dst[i], u)
		}
		l.Release()
	}
	if m != nil {
		m.InferBatchTotal.Inc()
		m.InferLatency.Observe(time.Since(t0).Nanoseconds())
	}
}
