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

// Batched serving: InferBatch groups utterances into fixed-width lockstep
// panels so every weight matrix is streamed from memory once per step for
// the whole group instead of once per utterance — the SpMM weight-reuse
// win. Ragged batches are handled by lane retirement: when an utterance
// runs out of frames its lane keeps lockstepping on its last input (lanes
// are fully independent, so this cannot perturb the live lanes) and its
// output column simply stops being read.

// MaxBatchWidth caps the lockstep panel width InferBatch uses per worker
// group. Wider panels amortize the weight stream further but grow the
// activation working set linearly; 32 keeps a paper-scale layer's panels
// inside L2 while already reading each weight 1/32nd as often.
const MaxBatchWidth = 32

// maxFreeArenas bounds the engine's batch-arena free list.
const maxFreeArenas = 16

// forkJoinBreakEvenMACs is the fork-join break-even: below this many
// multiply-accumulates per worker, handing panel groups to the pool costs
// more than the arithmetic saves, so InferBatchInto runs one wide panel on
// the caller instead (bit-identical either way). Sized so single-utterance
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

// BatchStream is a stateful lockstep inference session over bw utterance
// slots. It owns all mutable state (the layer panels, the fp16 staging
// panel, the softmax staging rows), so one goroutine per BatchStream; the
// engine weights underneath stay shared and read-only. Lane l of every
// output panel is bit-identical to a serial Stream fed lane l's frames.
type BatchStream struct {
	inner *nn.BatchStream
	bw    int
	out   int
	fp16  bool
	qbuf  []float32
	lane  []float32
	post  []float32
	// shard/macs/bytes/tracer: see Stream. macs is per timestep per lane;
	// the lockstep executes bw lanes' worth of arithmetic every panel step
	// (retired lanes keep computing), so MACsTotal is metered at bw×macs.
	// bytes is NOT scaled by bw: the panel shares one weight stream per
	// step — the amortization batching exists for — so BytesStreamed
	// advances once per panel step.
	shard  uint32
	macs   uint64
	bytes  uint64
	tracer *obs.Tracer
	// sm is the per-lane posterior softmax on the engine's kernel tier
	// (see softmaxTier) — each lane's row is extracted to a serial buffer
	// first, so the softmax itself is lane-order-independent.
	sm func(dst, src []float32)
	// lastStepNs is the wall time of the most recent StepBatchInto,
	// captured only when the step is already being timed for metrics or
	// stage tracing (0 otherwise). The serve scheduler reads it through
	// LastStepNs to attribute kernel time to request traces without
	// paying a second clock read per panel step.
	lastStepNs int64
}

// NewBatchStream opens a lockstep session of width bw. State persists
// across StepBatch calls until Reset (all lanes) or ResetLane (one slot).
func (e *Engine) NewBatchStream(bw int) *BatchStream {
	s := &BatchStream{
		inner: e.model.NewKernelBatchStream(bw, e.kernels(&compiler.PackedScratch{})),
		bw:    bw,
		out:   e.model.Spec.OutputDim,
		fp16:  e.fp16,
		shard: obs.NextShard(),
		macs:  e.stepMACs,
		bytes: e.stepBytes,
		sm:    softmaxTier(e.precision == compiler.PrecisionFast),
	}
	if e.tracer != nil {
		s.tracer = e.tracer
		s.inner.SetTracer(e.tracer)
	}
	return s
}

// Width reports the session's batch width.
func (s *BatchStream) Width() int { return s.bw }

// stepBatch advances one input panel and returns the raw logits panel,
// borrowed from the pipeline's persistent buffers. On the fp16 path the
// whole input panel is rounded through half precision — element-wise, so
// each lane sees exactly the rounding a serial Stream applies to its frame.
func (s *BatchStream) stepBatch(panel []float32) []float32 {
	in := panel
	if s.fp16 {
		if cap(s.qbuf) < len(panel) {
			s.qbuf = make([]float32, len(panel))
		}
		in = s.qbuf[:len(panel)]
		copy(in, panel)
		tensor.QuantizeHalfVec(in)
	}
	return s.inner.StepBatch(in)
}

// StepBatch consumes one column-major input panel (element i of lane l at
// panel[i*bw+l]) and returns a freshly allocated posterior panel in the
// same layout. Use StepBatchInto for the allocation-free variant.
func (s *BatchStream) StepBatch(panel []float32) []float32 {
	dst := make([]float32, s.out*s.bw)
	s.StepBatchInto(dst, panel)
	return dst
}

// StepBatchInto consumes one input panel and writes per-lane phone
// posteriors into dst (column-major, OutputDim×bw). Retired lanes are
// skipped — their dst columns are left untouched. Steady-state
// StepBatchInto performs zero heap allocations.
func (s *BatchStream) StepBatchInto(dst, panel []float32) {
	m := obs.M()
	track := m != nil || s.tracer != nil
	var t0 time.Time
	if track {
		t0 = time.Now()
	}
	logits := s.stepBatch(panel)
	n := s.out
	if cap(s.lane) < n {
		s.lane = make([]float32, n)
		s.post = make([]float32, n)
	}
	lane, post := s.lane[:n], s.post[:n]
	live := 0
	for l := 0; l < s.bw; l++ {
		if !s.inner.Active(l) {
			continue
		}
		live++
		for i := 0; i < n; i++ {
			lane[i] = logits[i*s.bw+l]
		}
		s.sm(post, lane)
		for i, v := range post {
			dst[i*s.bw+l] = v
		}
	}
	if track {
		dur := time.Since(t0).Nanoseconds()
		s.lastStepNs = dur
		if m != nil {
			m.BatchStepsTotal.IncAt(s.shard)
			m.BatchLanesTotal.AddAt(s.shard, uint64(live))
			m.FramesTotal.AddAt(s.shard, uint64(live))
			// Retired lanes keep lockstepping, so arithmetic scales with
			// the panel width, not the live-lane count. The weight stream
			// does not: one stream serves the whole panel.
			m.MACsTotal.AddAt(s.shard, uint64(s.bw)*s.macs)
			m.BytesStreamed.AddAt(s.shard, s.bytes)
			m.BatchStepLatency.Observe(dur)
		}
		if s.tracer != nil {
			s.tracer.Record(obs.StageBatchStep, 0, int32(s.bw), t0.UnixNano(), dur)
		}
	}
}

// LastStepNs reports the measured wall time of the most recent
// StepBatch/StepBatchInto call. Steps are only timed when metrics
// collection or stage tracing is active; otherwise LastStepNs is 0.
func (s *BatchStream) LastStepNs() int64 { return s.lastStepNs }

// Reset clears every lane's recurrent state and re-activates all lanes.
func (s *BatchStream) Reset() { s.inner.Reset() }

// ResetLane clears one lane's recurrent state and re-activates it — a new
// utterance entering a serving slot whose neighbors keep streaming.
func (s *BatchStream) ResetLane(l int) { s.inner.ResetLane(l) }

// Retire marks a lane's outputs meaningless (its utterance ended); the
// lockstep keeps computing the column but StepBatchInto stops writing it.
func (s *BatchStream) Retire(l int) { s.inner.Retire(l) }

// Active reports whether a lane currently carries a live utterance.
func (s *BatchStream) Active(l int) bool { return s.inner.Active(l) }

// CopyLaneTo copies lane l's recurrent state and active flag into lane dl
// of dst, a session of the same engine at any width: the utterance
// continues in dst bit-identically to having stayed here.
func (s *BatchStream) CopyLaneTo(dst *BatchStream, dl, l int) { s.inner.CopyLaneTo(dst.inner, dl, l) }

// batchArena is the per-group working set InferBatch reuses across calls:
// a lockstep session plus its input and posterior panels. Arenas are keyed
// by batch width; the engine keeps a small free list so steady-state
// serving never reallocates them. The embedded lease is the arena's
// exported face for the serve scheduler — allocated once with the arena so
// AcquireBatch stays allocation-free on the free-list hit path.
type batchArena struct {
	bw    int
	bs    *BatchStream
	in    []float32
	post  []float32
	lease BatchLease
}

// getBatchArena pops a width-bw arena off the free list or builds one.
// Pops and builds are metered as obs arena hits and misses, making the
// steady-state zero-allocation claim observable: a serving loop at a
// stable batch shape shows misses flat while hits climb.
func (e *Engine) getBatchArena(bw int) *batchArena {
	e.batchMu.Lock()
	for i := len(e.batchFree) - 1; i >= 0; i-- {
		if e.batchFree[i].bw == bw {
			a := e.batchFree[i]
			last := len(e.batchFree) - 1
			e.batchFree[i] = e.batchFree[last]
			e.batchFree[last] = nil
			e.batchFree = e.batchFree[:last]
			e.batchMu.Unlock()
			if m := obs.M(); m != nil {
				m.ArenaHits.Inc()
			}
			return a
		}
	}
	e.batchMu.Unlock()
	if m := obs.M(); m != nil {
		m.ArenaMisses.Inc()
	}
	a := &batchArena{
		bw:   bw,
		bs:   e.NewBatchStream(bw),
		in:   make([]float32, e.model.Spec.InputDim*bw),
		post: make([]float32, e.model.Spec.OutputDim*bw),
	}
	a.lease.e = e
	a.lease.a = a
	return a
}

// BatchLease is a leased lockstep panel session for external serving
// tiers (internal/sched): the caller fills the input panel column-major,
// Steps, and reads the posterior panel, with ResetLane/Retire managing
// lane occupancy across ragged utterances. It satisfies sched.Session
// structurally. One goroutine per lease; Release returns it to the
// engine's arena free list, so steady-state acquire/release cycles at a
// stable width perform zero heap allocations.
type BatchLease struct {
	e *Engine
	a *batchArena
}

// AcquireBatch leases a width-bw lockstep session with every lane reset
// and active. Arena-backed: repeated acquire/release at one width reuses
// the same panels and session.
func (e *Engine) AcquireBatch(bw int) *BatchLease {
	a := e.getBatchArena(bw)
	a.bs.Reset()
	return &a.lease
}

// In returns the input panel (InputDim × width, element i of lane l at
// In()[i*width+l]).
func (l *BatchLease) In() []float32 { return l.a.in }

// Out returns the posterior panel (OutputDim × width), valid after Step.
func (l *BatchLease) Out() []float32 { return l.a.post }

// Width reports the lease's panel width.
func (l *BatchLease) Width() int { return l.a.bw }

// Step advances every lane one frame: posteriors for live lanes land in
// Out, retired lanes' columns are left untouched.
func (l *BatchLease) Step() { l.a.bs.StepBatchInto(l.a.post, l.a.in) }

// LastStepNs reports the measured wall time of the most recent Step (0
// when neither metrics nor stage tracing is timing steps). Request traces
// use it to attribute kernel time without an extra clock read.
func (l *BatchLease) LastStepNs() int64 { return l.a.bs.LastStepNs() }

// ResetLane clears lane i's recurrent state and re-activates it.
func (l *BatchLease) ResetLane(i int) { l.a.bs.ResetLane(i) }

// Retire marks lane i's outputs meaningless (its utterance ended).
func (l *BatchLease) Retire(i int) { l.a.bs.Retire(i) }

// CopyLaneTo copies lane i's recurrent state and active flag into lane di
// of dst, a lease of the same engine at any width — how a serving tier
// moves an utterance between panel shapes mid-flight. Posteriors already
// read out of Out are not carried; the next Step of dst produces lane di's
// next row exactly as this lease would have.
func (l *BatchLease) CopyLaneTo(dst *BatchLease, di, i int) { l.a.bs.CopyLaneTo(dst.a.bs, di, i) }

// Release returns the session to the engine's arena free list. The lease
// must not be used afterwards.
func (l *BatchLease) Release() { l.e.putBatchArena(l.a) }

// putBatchArena returns an arena to the free list (dropped if full).
func (e *Engine) putBatchArena(a *batchArena) {
	e.batchMu.Lock()
	if len(e.batchFree) < maxFreeArenas {
		e.batchFree = append(e.batchFree, a)
	}
	e.batchMu.Unlock()
}

// batchWidth picks the lockstep panel width for an n-utterance batch:
// split the batch evenly across the pool's workers, clamped to
// [1, MaxBatchWidth].
func batchWidth(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	bw := (n + workers - 1) / workers
	if bw > MaxBatchWidth {
		bw = MaxBatchWidth
	}
	if bw < 1 {
		bw = 1
	}
	return bw
}

// inferPanel scores up to bw utterances in lockstep, writing per-frame
// posteriors into dst (dst[l][t] must already have the model's output
// width). Lanes past len(utts), and empty utterances, start retired; each
// live lane is retired the step after its last frame. Retired lanes keep
// lockstepping on their final input frame — harmless, because lanes never
// mix.
func (e *Engine) inferPanel(dst [][][]float32, utts [][][]float32, bw int) {
	a := e.getBatchArena(bw)
	bs := a.bs
	bs.Reset()
	maxT := 0
	for l := 0; l < bw; l++ {
		if l >= len(utts) || len(utts[l]) == 0 {
			bs.Retire(l)
		} else if len(utts[l]) > maxT {
			maxT = len(utts[l])
		}
	}
	for t := 0; t < maxT; t++ {
		for l := 0; l < len(utts) && l < bw; l++ {
			if t < len(utts[l]) {
				for i, v := range utts[l][t] {
					a.in[i*bw+l] = v
				}
			}
		}
		bs.StepBatchInto(a.post, a.in)
		for l := 0; l < len(utts) && l < bw; l++ {
			if t < len(utts[l]) {
				row := dst[l][t]
				for i := range row {
					row[i] = a.post[i*bw+l]
				}
				if t+1 == len(utts[l]) {
					bs.Retire(l)
				}
			}
		}
	}
	e.putBatchArena(a)
}

// InferBatchInto scores independent utterances through the lockstep
// batched path, writing per-frame posteriors into dst. dst must mirror
// batch's shape: dst[i] has one row per frame of batch[i], each row the
// model's output width. Steady-state calls with a stable batch shape
// below the fork-join break-even perform zero heap allocations — the arena
// free list and the lockstep session's panels are all reused; above it the
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
	// arithmetic per worker to pay for the fork-join; below it one wide panel
	// on the caller is faster, and allocation-free at any worker count.
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
	track := m != nil || e.tracer != nil
	var t0 time.Time
	if track {
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
	if track {
		dur := time.Since(t0).Nanoseconds()
		if m != nil {
			m.InferBatchTotal.Inc()
			m.InferLatency.Observe(dur)
		}
		if e.tracer != nil {
			e.tracer.Record(obs.StageInferBatch, 0, int32(n), t0.UnixNano(), dur)
		}
	}
}
