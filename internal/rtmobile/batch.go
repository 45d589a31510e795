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

// The engine's one session type, and batched serving on top of it:
// InferBatch groups utterances into fixed-width lockstep panels so every
// weight matrix is streamed from memory once per step for the whole group
// instead of once per utterance — the SpMM weight-reuse win. Ragged batches
// are handled by lane retirement: when an utterance runs out of frames its
// lane keeps lockstepping on its last input (lanes are fully independent, so
// this cannot perturb the live lanes) and its output column simply stops
// being read.

// MaxBatchWidth caps the lockstep panel width InferBatch uses per worker
// group. Wider panels amortize the weight stream further but grow the
// activation working set linearly; 32 keeps a paper-scale layer's panels
// inside L2 while already reading each weight 1/32nd as often.
const MaxBatchWidth = 32

// maxFreeArenas bounds the engine's free list of released sessions.
const maxFreeArenas = 16

// forkJoinBreakEvenMACs is the fork-join break-even: below this many
// multiply-accumulates per worker, handing panel groups to the pool costs
// more than the arithmetic saves, so InferBatchInto runs its groups on the
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
// single stream, which Stream wraps). It owns all mutable state — the layer
// panels, the fp16 staging panel, the softmax staging rows, its In/Out
// panels — so one goroutine per session; the engine weights underneath stay
// shared and read-only. On the exact tier lane l of every output panel is
// bit-identical to Infer on lane l's frames at any width (the fast tier's
// panel kernels round width-dependently, inside its tolerance).
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
	// sm is the per-lane posterior softmax on the engine's kernel tier (see
	// softmaxTier), captured at open time like the steppers' epilogue.
	sm func(dst, src []float32)
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
		sm:     softmaxTier(e.precision == compiler.PrecisionFast),
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
		l.sm(row, lane)
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

// minPanelWidth is the narrowest multi-lane panel InferBatchInto opens: the
// strided kernels vectorize eight lanes at a time, and a 2–7 lane panel on
// the portable kernel costs 750–1,691 µs a step against 247 µs per lane at
// width 1 (BenchmarkPanelStepWidth) — the same two-shape rule internal/sched
// dispatches by.
const minPanelWidth = 8

// batchWidth picks the lockstep panel width for an n-utterance batch: split
// the batch evenly across the pool's workers, capped at MaxBatchWidth; a
// share narrower than minPanelWidth runs as width-1 sessions instead, one
// utterance per group (bit-identical: lanes never mix).
func batchWidth(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	bw := min((n+workers-1)/workers, MaxBatchWidth)
	if bw < minPanelWidth {
		return 1
	}
	return bw
}

// inferPanel scores up to Width utterances in lockstep on a leased session,
// writing per-frame posteriors into dst (dst[k][t] must already have the
// model's output width). Lanes past len(utts), and empty utterances, start
// retired; each live lane is retired the step after its last frame. Retired
// lanes keep lockstepping on their final input frame — harmless, because
// lanes never mix.
func (e *Engine) inferPanel(dst [][][]float32, utts [][][]float32, bw int) {
	l := e.AcquireBatch(bw)
	maxT := 0
	for k := 0; k < bw; k++ {
		if k >= len(utts) || len(utts[k]) == 0 {
			l.Retire(k)
		} else if len(utts[k]) > maxT {
			maxT = len(utts[k])
		}
	}
	for t := 0; t < maxT; t++ {
		for k := 0; k < len(utts) && k < bw; k++ {
			if t < len(utts[k]) {
				for i, v := range utts[k][t] {
					l.in[i*bw+k] = v
				}
			}
		}
		l.Step()
		for k := 0; k < len(utts) && k < bw; k++ {
			if t < len(utts[k]) {
				row := dst[k][t]
				for i := range row {
					row[i] = l.post[i*bw+k]
				}
				if t+1 == len(utts[k]) {
					l.Retire(k)
				}
			}
		}
	}
	l.Release()
}

// InferBatchInto scores independent utterances through the lockstep
// batched path, writing per-frame posteriors into dst. dst must mirror
// batch's shape: dst[i] has one row per frame of batch[i], each row the
// model's output width. Steady-state calls with a stable batch shape
// below the fork-join break-even perform zero heap allocations — the free
// list's sessions and their panels are all reused; above it the
// pool's fork-join costs a handful of allocations per call, amortized over
// at least forkJoinBreakEvenMACs of arithmetic per worker.
//
// Output is bit-identical to calling Infer on each utterance serially:
// grouping changes memory layout and weight-stream amortization, never a
// single summation order.
func (e *Engine) InferBatchInto(dst, batch [][][]float32) {
	n := len(batch)
	if n == 0 {
		return
	}
	if len(dst) != n {
		panic("rtmobile: InferBatchInto dst/batch length mismatch")
	}
	pool := e.pool
	if pool == nil {
		pool = parallel.Default()
	}
	// Shard panel groups across the pool only when the batch carries enough
	// arithmetic per worker to pay for the fork-join; below it the groups run
	// on the caller, faster and allocation-free at any worker count.
	workers := pool.Workers()
	if workers > 1 {
		frames := 0
		for _, u := range batch {
			frames += len(u)
		}
		if !forkJoinWorthwhile(int(e.stepMACs)*frames, workers) {
			workers = 1
		}
	}
	bw := batchWidth(n, workers)
	groups := (n + bw - 1) / bw
	m := obs.M()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	if groups == 1 || workers < 2 {
		// Inline loop instead of pool.For: the closure-free path is what
		// keeps steady-state serving at zero allocations.
		for g := 0; g < groups; g++ {
			lo := g * bw
			hi := min(lo+bw, n)
			e.inferPanel(dst[lo:hi], batch[lo:hi], bw)
		}
	} else {
		pool.For(groups, func(g int) {
			lo := g * bw
			hi := min(lo+bw, n)
			e.inferPanel(dst[lo:hi], batch[lo:hi], bw)
		})
	}
	if m != nil {
		m.InferBatchTotal.Inc()
		m.InferLatency.Observe(time.Since(t0).Nanoseconds())
	}
}
