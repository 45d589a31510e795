// Package sched is the continuous-batching serve scheduler: it sits
// between the HTTP handlers and the engine's lockstep batch machinery and
// decides, one panel step at a time, which waiting utterances ride which
// lanes of which panel.
//
// Architecture: every scheduling decision lives in a single-threaded state
// machine (core) whose inputs are arrivals, cancellations and explicit
// clock readings — no time.Now calls, no goroutines, no channels, no
// timers. The async Scheduler (sched.go) is a thin shell that serializes
// submit/cancel/advance under one mutex, released only while a panel step
// computes, and sleeps only while the core has nothing to do. Tests drive
// the very same core synchronously with scripted arrival traces, so panel
// composition is asserted exactly, not probabilistically.
//
// Policy (work-conserving: the core never waits on purpose):
//
//   - The core is runnable whenever a panel is live or a request waits. A
//     request that arrives at an idle core is stepped at once — there is no
//     batch window; batching comes only from requests that are already
//     waiting when a step boundary is reached.
//   - There is at most one live panel, and it has one of exactly two
//     shapes: width 1, which is the live single stream, and width
//     MaxBatch, the only multi-lane width with a vector kernel (the widths
//     in between run scalar code: at 2–6 lanes a step costs more than
//     stepping the lanes one after another, and at 7 it costs 1.8× the
//     eight-wide step — DESIGN.md has the measured table). A lone waiter
//     opens the narrow shape, several open the wide one.
//   - At every step boundary the panel picks its shape for the coming
//     step, then fills its free lanes from the queue. A narrow panel grows
//     to MaxBatch if more requests wait than it has free lanes; a wide one
//     with a single live lane and nothing waiting shrinks to 1, so a ragged
//     tail stops paying wide steps. Growing and shrinking move the live
//     lanes' recurrent state, bit for bit, into a session of the other
//     shape (Batcher.MoveLane), so a moved utterance's rows are exactly
//     those of one that stayed put.
//   - A lane retires the step its utterance's last frame is scored, or at
//     the first step boundary after its caller gave up; ResetLane re-arms
//     it for the next occupant. The panel is released when its last lane
//     retires.
//   - Admission control: a full queue rejects with ErrQueueFull (the HTTP
//     429 path); a closed scheduler rejects with ErrClosed but finishes
//     everything already admitted.
package sched

import (
	"errors"
	"sync/atomic"
	"time"

	"rtmobile/internal/obs"
)

// ErrQueueFull is returned when admission control bounces a request: the
// pending queue is at QueueDepth. HTTP handlers map it to 429 with a
// Retry-After hint.
var ErrQueueFull = errors.New("sched: queue full")

// ErrClosed is returned for submissions after Close; already-admitted
// requests still run to completion.
var ErrClosed = errors.New("sched: scheduler closed")

// Session is one leased lockstep panel: the scheduler's view of
// rtmobile.BatchLease (or a test fake). In and Out are column-major
// panels — element i of lane l at panel[i*width+l].
type Session interface {
	// In returns the input panel (InputDim × width) the caller fills
	// before Step.
	In() []float32
	// Out returns the posterior panel (OutputDim × width), valid after
	// Step until the next Step.
	Out() []float32
	// Step advances every live lane one frame.
	Step()
	// ResetLane clears lane l's recurrent state and re-activates it.
	ResetLane(l int)
	// Retire marks lane l's outputs meaningless; the lockstep keeps
	// computing the column but stops writing posteriors for it.
	Retire(l int)
	// LastStepNs reports the measured wall time of the most recent Step,
	// or 0 when the engine is not timing steps (metrics and stage tracing
	// both off). Request tracing attributes kernel time from it, keeping
	// the core's no-clock-reads rule intact.
	LastStepNs() int64
	// Release returns the session to its owner's arena.
	Release()
}

// Batcher hands out lockstep sessions over shared read-only weights —
// implemented by the engine adapter in internal/registry and by test fakes.
type Batcher interface {
	InputDim() int
	OutputDim() int
	// Acquire leases a session of the given width. The scheduler asks for
	// width 1 and width MaxBatch only.
	Acquire(width int) Session
	// MoveLane copies lane sl of src — recurrent state and live flag, bit
	// for bit — into lane dl of dst. Both sessions came from this batcher;
	// their widths may differ.
	MoveLane(dst Session, dl int, src Session, sl int)
}

// request is one queued inference job. Requests are recycled through the
// scheduler's free list, so the steady-state dispatch path allocates
// nothing per request.
type request struct {
	frames [][]float32   // at least one frame: the shell answers empty utterances itself
	out    [][]float32   // len(frames) rows of OutputDim, caller-owned
	done   chan struct{} // buffered 1; exactly one token per admitted job
	enq    time.Time
	next   int // frames scored so far
	// cancelled is set by the caller when its context ends. The core reads
	// it at step boundaries only, so a step in flight still scores its frame.
	cancelled atomic.Bool

	// trace, when non-nil, is the caller's request trace: the core records
	// queue-wait, batch-formation, generation, and kernel spans into it.
	// Single-writer is preserved — the core only touches it under the
	// scheduler mutex, and the caller only once it holds the request's token.
	trace  *obs.ReqTrace
	seated time.Time // when the request took a lane (generation span start)
}

// Config sizes the scheduler.
type Config struct {
	// MaxBatch is the wide panel shape: a panel is either 1 or MaxBatch
	// lanes wide. 1 disables batching. Default 8.
	MaxBatch int
	// Window is ignored. It was the batch window; the scheduler no longer
	// waits for lane-mates. The field remains only so existing struct
	// literals keep compiling.
	Window time.Duration
	// QueueDepth bounds the pending queue; submissions beyond it are
	// rejected with ErrQueueFull. Default 8×MaxBatch.
	QueueDepth int
	// MaxStreams bounds concurrent streaming sessions admitted through
	// AcquireStreamLane. Default MaxBatch.
	MaxStreams int
	// Clock injects time; nil means the wall clock.
	Clock Clock
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8 * c.MaxBatch
	}
	if c.MaxStreams < 1 {
		c.MaxStreams = c.MaxBatch
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	return c
}

// core is the single-threaded scheduling state machine. The Scheduler
// serializes every method under its mutex; the deterministic tests call
// them directly. No method reads a clock — callers pass now.
type core struct {
	maxBatch int
	batcher  Batcher
	inDim    int
	outDim   int
	// runStep runs the panel step: Session.Step, or the Scheduler's
	// stepUnlocked, which lets submissions queue while the panel computes.
	// Only submit and Close may run meanwhile, and they touch nothing but
	// the queue and the closed flag, which step does not read.
	runStep func(Session)

	// pending is a fixed-capacity FIFO ring of waiting requests.
	ring []*request
	head int
	n    int

	// Panel state: sess is nil when no panel is live, otherwise width is 1
	// or maxBatch. lanes[l] is the request occupying lane l (nil = free).
	// completed is the reusable scratch advance returns finished requests in.
	sess      Session
	width     int
	lanes     []*request
	live      int
	completed []*request

	closed bool
}

func newCore(b Batcher, cfg Config) *core {
	return &core{
		maxBatch:  cfg.MaxBatch,
		batcher:   b,
		inDim:     b.InputDim(),
		outDim:    b.OutputDim(),
		runStep:   Session.Step,
		ring:      make([]*request, cfg.QueueDepth),
		lanes:     make([]*request, cfg.MaxBatch),
		completed: make([]*request, 0, cfg.MaxBatch+cfg.QueueDepth),
	}
}

// submit admits a request into the pending queue or rejects it.
func (c *core) submit(r *request, now time.Time) error {
	if c.closed {
		return ErrClosed
	}
	if c.n == len(c.ring) {
		if m := obs.M(); m != nil {
			m.SchedRejected.Inc()
		}
		return ErrQueueFull
	}
	r.enq = now
	r.next = 0
	c.ring[(c.head+c.n)%len(c.ring)] = r
	c.n++
	if m := obs.M(); m != nil {
		m.SchedAdmitted.Inc()
		m.SchedQueue.Set(int64(c.n))
	}
	return nil
}

// pop removes the oldest pending request.
func (c *core) pop() *request {
	r := c.ring[c.head]
	c.ring[c.head] = nil
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	if m := obs.M(); m != nil {
		m.SchedQueue.Set(int64(c.n))
	}
	return r
}

// reap detaches every request whose caller has given up: a seated one
// retires its lane, free for a waiter at this very boundary; a queued one
// leaves the queue. Each is handed back through completed like a finished
// request — its caller is waiting for that token — and from here on the
// core holds no reference to it, its rows or its trace.
func (c *core) reap() {
	for l := 0; l < c.width; l++ {
		if r := c.lanes[l]; r != nil && r.cancelled.Load() {
			c.sess.Retire(l)
			c.lanes[l] = nil
			c.live--
			c.completed = append(c.completed, r)
		}
	}
	size, kept := len(c.ring), 0
	for i := 0; i < c.n; i++ {
		r := c.ring[(c.head+i)%size]
		if r.cancelled.Load() {
			c.completed = append(c.completed, r)
			continue
		}
		c.ring[(c.head+kept)%size] = r
		kept++
	}
	if kept == c.n {
		return
	}
	for i := kept; i < c.n; i++ {
		c.ring[(c.head+i)%size] = nil
	}
	c.n = kept
	if m := obs.M(); m != nil {
		m.SchedQueue.Set(int64(c.n))
	}
}

// queueLen reports the number of waiting requests.
func (c *core) queueLen() int { return c.n }

// runnable reports whether advance has work: a live panel to step or a
// waiting request to seat. Nothing else gates dispatch.
func (c *core) runnable() bool { return c.sess != nil || c.n > 0 }

// advance performs one unit of scheduling work — the step boundary
// (dropping cancelled requests, seating, growing or shrinking) and one
// lockstep panel step — and returns the requests it is done with, finished
// or cancelled (reused scratch; consume before the next call). Callers
// must only invoke it when runnable.
func (c *core) advance(now time.Time) []*request {
	c.completed = c.completed[:0]
	c.reap()
	c.regroup(now)
	if c.live > 0 {
		c.step(now)
	}
	if c.sess != nil && c.live == 0 {
		// Released even when requests wait: the next boundary opens the
		// shape that fits them.
		c.sess.Release()
		c.sess = nil
		c.width = 0
	}
	return c.completed
}

// regroup picks the panel's shape for the coming step and seats waiters.
// It leaves no request queued while a lane is free or the panel could
// still grow, and no wide panel stepping for a single lane while nothing
// waits.
func (c *core) regroup(now time.Time) {
	formed := false // the panel was opened or grown at this boundary
	switch {
	case c.sess == nil:
		if c.n == 0 {
			return // every waiter was cancelled
		}
		w := 1
		if c.n > 1 {
			w = c.maxBatch
		}
		c.acquire(w)
		formed = true
		if m := obs.M(); m != nil {
			m.SchedDispatch.Inc()
		}
	case c.n > c.width-c.live && c.width < c.maxBatch:
		c.reshape(c.maxBatch)
		formed = true
		if m := obs.M(); m != nil {
			m.SchedGrows.Inc()
		}
	case c.n == 0 && c.live == 1 && c.width > 1:
		c.reshape(1)
		if m := obs.M(); m != nil {
			m.SchedShrinks.Inc()
		}
	}
	for l := 0; l < c.width && c.n > 0; l++ {
		if c.lanes[l] == nil {
			c.seat(l, now, formed)
		}
	}
}

// acquire leases a width-w session with every lane retired; seat and
// reshape re-activate the ones that carry an utterance.
func (c *core) acquire(w int) {
	c.sess = c.batcher.Acquire(w)
	c.width = w
	for l := 0; l < w; l++ {
		c.sess.Retire(l)
	}
}

// reshape replaces the live session with one of width w, moving every live
// lane's state across (packed from lane 0) and releasing the old session.
func (c *core) reshape(w int) {
	old, ow := c.sess, c.width
	c.acquire(w)
	dl := 0
	for l := 0; l < ow; l++ {
		r := c.lanes[l]
		if r == nil {
			continue
		}
		c.batcher.MoveLane(c.sess, dl, old, l)
		c.lanes[l] = nil
		c.lanes[dl] = r
		dl++
	}
	old.Release()
	if m := obs.M(); m != nil {
		m.SchedLanesMoved.Add(uint64(dl))
	}
}

// seat moves the oldest pending request into free lane l. formed records
// that the panel was opened or grown for it at this boundary (the
// batch_form span); a request joining a lane that was simply free carries
// none.
func (c *core) seat(l int, now time.Time, formed bool) {
	r := c.pop()
	c.sess.ResetLane(l)
	c.lanes[l] = r
	c.live++
	r.seated = now
	if r.trace != nil {
		wait := now.Sub(r.enq).Nanoseconds()
		r.trace.AddSpan(obs.ReqSpanQueueWait, int16(l), int16(c.width), r.enq.UnixNano(), wait)
		if formed {
			r.trace.AddSpan(obs.ReqSpanBatchForm, int16(l), int16(c.width), r.enq.UnixNano(), wait)
		}
	}
	if m := obs.M(); m != nil {
		m.SchedJoins.Inc()
		m.SchedQueueWait.Observe(now.Sub(r.enq).Nanoseconds())
	}
}

// step drives one lockstep panel step: stage each live lane's next frame,
// advance the panel, scatter posterior columns back into per-request rows,
// retire finished lanes.
func (c *core) step(now time.Time) {
	in := c.sess.In()
	bw := c.width
	for l := 0; l < bw; l++ {
		r := c.lanes[l]
		if r == nil {
			continue
		}
		for i, v := range r.frames[r.next] {
			in[i*bw+l] = v
		}
	}
	stepped := c.live
	c.runStep(c.sess)
	// Kernel attribution: the panel step's measured wall time is shared by
	// every live lane, so each traced participant accumulates the full step
	// duration (lazily fetched — untraced panels never ask). LastStepNs is
	// 0 when the engine is not timing steps; AddKernel ignores zeros.
	stepNs := int64(-1)
	out := c.sess.Out()
	for l := 0; l < bw; l++ {
		r := c.lanes[l]
		if r == nil {
			continue
		}
		if r.trace != nil {
			if stepNs < 0 {
				stepNs = c.sess.LastStepNs()
			}
			r.trace.Steps++
			r.trace.AddKernel(now.UnixNano(), stepNs)
		}
		row := r.out[r.next]
		for i := range row {
			row[i] = out[i*bw+l]
		}
		r.next++
		if r.next == len(r.frames) {
			c.sess.Retire(l)
			c.lanes[l] = nil
			c.live--
			if r.trace != nil {
				// The lane and width the request finished in; a request moved
				// between shapes mid-flight was seated elsewhere.
				r.trace.AddSpan(obs.ReqSpanGeneration, int16(l), int16(bw),
					r.seated.UnixNano(), now.Sub(r.seated).Nanoseconds())
			}
			c.completed = append(c.completed, r)
		}
	}
	if m := obs.M(); m != nil {
		m.SchedSteps.Inc()
		m.LaneOccupancy.Observe(int64(stepped))
	}
}
