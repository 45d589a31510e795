package sched

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The scripted-trace harness: drives the core state machine synchronously
// with explicit clock readings, so every scheduling decision — dispatch on
// arrival, growing and shrinking between the two panel shapes, mid-flight
// joins, ragged retirement, cancellation — is asserted exactly. No
// goroutines, no sleeps, no probabilistic slack.

type harness struct {
	t         *testing.T
	c         *core
	b         *fakeBatcher
	now       time.Time
	frames    map[int][][]float32
	outs      map[int][][]float32
	byReq     map[*request]int
	reqs      map[int]*request
	completed []int // request ids in completion order
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	cfg = cfg.withDefaults()
	b := newFakeBatcher(3, 2)
	return &harness{
		t:      t,
		c:      newCore(b, cfg),
		b:      b,
		now:    time.Unix(0, 0),
		frames: map[int][][]float32{},
		outs:   map[int][][]float32{},
		byReq:  map[*request]int{},
		reqs:   map[int]*request{},
	}
}

// submit enqueues a T-frame request tagged id.
func (h *harness) submit(id, T int) error {
	h.t.Helper()
	frames := traceFrames(id, T, h.b.inDim)
	out := outRows(T, h.b.outDim)
	r := &request{done: make(chan struct{}, 1), frames: frames, out: out}
	if err := h.c.submit(r, h.now); err != nil {
		return err
	}
	h.frames[id] = frames
	h.outs[id] = out
	h.byReq[r] = id
	h.reqs[id] = r
	return nil
}

// tick moves the harness clock.
func (h *harness) tick(d time.Duration) { h.now = h.now.Add(d) }

// advance runs one core unit of work, recording completions.
func (h *harness) advance() {
	h.t.Helper()
	if !h.c.runnable() {
		h.t.Fatalf("advance at %v: core not runnable", h.now)
	}
	for _, r := range h.c.advance(h.now) {
		h.completed = append(h.completed, h.byReq[r])
	}
}

// drain runs the core until idle, bounded so a wedged core fails loudly.
func (h *harness) drain() {
	h.t.Helper()
	for i := 0; i < 10_000; i++ {
		if !h.c.runnable() {
			return
		}
		h.advance()
	}
	h.t.Fatalf("core did not drain in 10k advances (live=%d queued=%d)", h.c.live, h.c.n)
}

// composition reports the ids seated per lane (-1 = free lane).
func (h *harness) composition() []int {
	if h.c.sess == nil {
		return nil
	}
	ids := make([]int, h.c.width)
	for l := range ids {
		ids[l] = -1
		if r := h.c.lanes[l]; r != nil {
			ids[l] = h.byReq[r]
		}
	}
	return ids
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustCompose fails unless the live panel seats exactly these ids.
func (h *harness) mustCompose(when string, want ...int) {
	h.t.Helper()
	if got := h.composition(); !eqInts(got, want) {
		h.t.Fatalf("%s: composition %v, want %v", when, got, want)
	}
}

// mustWidths fails unless the batcher handed out exactly these widths.
func (h *harness) mustWidths(want ...int) {
	h.t.Helper()
	if got := h.b.widths(); !eqInts(got, want) {
		h.t.Fatalf("acquired widths %v, want %v", got, want)
	}
}

// checkOutputs verifies every completed request against the serial oracle.
func (h *harness) checkOutputs() {
	h.t.Helper()
	for id, frames := range h.frames {
		if h.reqs[id].next != len(frames) {
			continue // cancelled mid-flight
		}
		want := fakeRef(h.b.inDim, h.b.outDim, frames)
		if err := mustEqual(h.outs[id], want); err != nil {
			h.t.Fatalf("request %d output diverges from serial oracle: %v", id, err)
		}
	}
}

// TestCoreLoneArrivalSteppedOnArrival: a request that finds the core idle
// is stepped at the instant it arrives, in the narrow shape — whatever the
// ignored Window field holds.
func TestCoreLoneArrivalSteppedOnArrival(t *testing.T) {
	for _, window := range []time.Duration{0, 2 * time.Millisecond, time.Hour} {
		h := newHarness(t, Config{MaxBatch: 4, Window: window})
		h.tick(7 * time.Millisecond)
		if h.c.runnable() {
			t.Fatal("idle core runnable")
		}
		if err := h.submit(0, 3); err != nil {
			t.Fatal(err)
		}
		if !h.c.runnable() {
			t.Fatalf("window %v: a waiting request did not make the core runnable", window)
		}
		h.advance() // no tick: the first frame is scored at the arrival instant
		h.mustCompose("after the first step", 0)
		h.mustWidths(1)
		if h.reqs[0].next != 1 || !h.reqs[0].seated.Equal(h.now) {
			t.Fatalf("window %v: %d frames scored, seated %v; want 1 frame at %v",
				window, h.reqs[0].next, h.reqs[0].seated, h.now)
		}
		h.drain()
		h.checkOutputs()
	}
}

// TestCoreGrowsForSecondArrival: a request arriving while a lone utterance
// is mid-flight makes the very next step MaxBatch wide with both aboard;
// the rows the first request already has are untouched and the rest still
// match the serial oracle.
func TestCoreGrowsForSecondArrival(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 4})
	h.submit(0, 5)
	h.advance()
	h.advance() // two frames of request 0 scored at width 1
	before := [][]float32{
		append([]float32(nil), h.outs[0][0]...),
		append([]float32(nil), h.outs[0][1]...),
	}
	h.submit(1, 3)
	h.advance()
	h.mustCompose("after growing", 0, 1, -1, -1)
	h.mustWidths(1, 4)
	if h.b.lastWidth != 4 || h.b.lastActive != 2 {
		t.Fatalf("step after the arrival ran %d live lanes at width %d, want 2 at 4", h.b.lastActive, h.b.lastWidth)
	}
	if h.reqs[0].next != 3 || h.reqs[1].next != 1 {
		t.Fatalf("frames scored %d/%d, want 3/1", h.reqs[0].next, h.reqs[1].next)
	}
	if err := mustEqual(h.outs[0][:2], before); err != nil {
		t.Fatalf("growing rewrote rows already delivered: %v", err)
	}
	if h.b.moved != 1 {
		t.Fatalf("%d lanes moved, want 1", h.b.moved)
	}
	h.drain()
	h.checkOutputs()
}

// TestCoreShrinkNeedsLoneLaneAndEmptyQueue: a wide panel narrows only when
// exactly one lane is live and nothing waits.
func TestCoreShrinkNeedsLoneLaneAndEmptyQueue(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 3})
	h.submit(0, 9)
	h.submit(1, 2)
	h.submit(2, 2)
	h.submit(3, 2)
	h.advance() // opens wide; request 3 waits
	h.mustCompose("opened", 0, 1, 2)
	h.advance() // 1 and 2 retire
	h.mustCompose("two lanes retired", 0, -1, -1)
	// One live lane but a waiter: it takes a free lane, no shrink.
	h.advance()
	h.mustCompose("waiter seated", 0, 3, -1)
	h.mustWidths(3)
	h.advance() // 3 retires: one live lane, empty queue
	h.mustCompose("before the shrink", 0, -1, -1)
	h.advance()
	h.mustCompose("shrunk", 0)
	h.mustWidths(3, 1)
	if h.b.lastWidth != 1 || h.b.lastActive != 1 {
		t.Fatalf("tail step ran %d lanes at width %d, want 1 at 1", h.b.lastActive, h.b.lastWidth)
	}
	h.drain()
	h.mustWidths(3, 1)
	h.checkOutputs()
}

// TestCoreMaxBatchOneNeverRegroups: with one shape there is nothing to
// grow into or shrink from; waiters take the lane in turn.
func TestCoreMaxBatchOneNeverRegroups(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 1})
	for id := 0; id < 4; id++ {
		h.submit(id, 1+id%3)
	}
	h.advance()
	h.submit(4, 2) // arrives mid-flight
	h.drain()
	for _, w := range h.b.widths() {
		if w != 1 {
			t.Fatalf("acquired widths %v, want only 1", h.b.widths())
		}
	}
	if h.b.moved != 0 {
		t.Fatalf("%d lanes moved with MaxBatch 1", h.b.moved)
	}
	if !eqInts(h.completed, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("completion order %v, want FIFO", h.completed)
	}
	h.checkOutputs()
}

// TestCoreFullPanelDispatch: MaxBatch requests waiting together open one
// exactly full wide panel, at once.
func TestCoreFullPanelDispatch(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 3, Window: time.Hour})
	for id := 0; id < 3; id++ {
		if err := h.submit(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	h.advance()
	h.mustCompose("opened", 0, 1, 2)
	if h.b.lastActive != 3 {
		t.Fatalf("first step ran %d live lanes, want 3", h.b.lastActive)
	}
	h.drain()
	h.mustWidths(3)
	h.checkOutputs()
}

// TestCoreRaggedRetireAndJoin: lanes retire as their utterances end and a
// queued late arrival takes over the freed lane mid-flight — the
// continuous-batching property, asserted step by step.
func TestCoreRaggedRetireAndJoin(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 3})
	// Ragged lengths: lane 0 runs 4 frames, lane 1 runs 1, lane 2 runs 2.
	h.submit(0, 4)
	h.submit(1, 1)
	h.submit(2, 2)
	h.advance() // opens at width 3; step 1: request 1 (one frame) retires
	h.mustCompose("after step 1", 0, -1, 2)
	if !eqInts(h.completed, []int{1}) {
		t.Fatalf("completed %v, want [1]", h.completed)
	}
	// A late arrival joins the freed lane on the very next step — same
	// panel, no reshaping.
	h.submit(3, 2)
	h.advance() // step 2: request 3 seated in lane 1; request 2 retires
	h.mustCompose("after step 2", 0, 3, -1)
	h.advance() // step 3: request 3 retires, leaving request 0 alone
	h.mustCompose("after step 3", 0, -1, -1)
	h.drain() // the last frame of request 0 runs narrow
	h.mustWidths(3, 1)
	if !eqInts(h.completed, []int{1, 2, 3, 0}) {
		t.Fatalf("completion order %v, want [1 2 3 0]", h.completed)
	}
	h.checkOutputs()
}

// TestCoreWidthClamp: more simultaneous arrivals than MaxBatch open a full
// wide panel; the extra one waits and joins on the first retirement, never
// widening the panel.
func TestCoreWidthClamp(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 2})
	h.submit(0, 1)
	h.submit(1, 3)
	h.submit(2, 2)
	h.advance()
	h.mustCompose("opened wide; request 0 already retired", -1, 1)
	if h.c.queueLen() != 1 {
		t.Fatalf("queue %d, want the extra arrival waiting", h.c.queueLen())
	}
	h.advance()
	h.mustCompose("extra arrival joined the freed lane", 2, 1)
	h.drain()
	for _, w := range h.b.widths() {
		if w > 2 {
			t.Fatalf("acquired width %d exceeds MaxBatch 2 (widths %v)", w, h.b.widths())
		}
	}
	if len(h.completed) != 3 {
		t.Fatalf("completed %d of 3", len(h.completed))
	}
	h.checkOutputs()
}

// TestCoreQueueBound: admission control rejects exactly at QueueDepth.
func TestCoreQueueBound(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 8, QueueDepth: 2})
	if err := h.submit(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.submit(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.submit(2, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	// Seating the queue re-opens admission.
	h.drain()
	if err := h.submit(3, 1); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	h.drain()
	h.checkOutputs()
}

// TestCoreClosedDrains: a closed core rejects new work but finishes what
// it admitted.
func TestCoreClosedDrains(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 4})
	h.submit(0, 2)
	h.submit(1, 3)
	h.c.closed = true
	if !h.c.runnable() {
		t.Fatal("closed core must still run pending work")
	}
	if err := h.submit(2, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
	h.drain()
	if len(h.completed) != 2 {
		t.Fatalf("completed %d of 2 admitted before close", len(h.completed))
	}
	h.checkOutputs()
}

// TestCoreEmptyUtterance: a zero-frame request is answered by the shell
// without reaching the core or leasing a session (defense in depth; the
// HTTP tier rejects these).
func TestCoreEmptyUtterance(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 2})
	defer s.Close(context.Background())
	out, err := s.Infer(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty utterance: %d rows, err %v", len(out), err)
	}
	if len(b.widths()) != 0 {
		t.Fatalf("a zero-frame request acquired a session (widths %v)", b.widths())
	}
}

// TestCoreSessionsReleased: every session acquired — opened, grown into or
// shrunk into — is released, and the core never holds more than the two it
// is moving lanes between.
func TestCoreSessionsReleased(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 3})
	id := 0
	for round := 0; round < 6; round++ {
		for k := 0; k <= round%4; k++ {
			h.submit(id, 1+id%5)
			id++
		}
		h.advance()
		h.submit(id, 2+id%3) // a mid-flight arrival: grows or joins
		id++
		h.drain()
	}
	if h.b.released != len(h.b.acquired) || h.b.held != 0 {
		t.Fatalf("acquired %d sessions, released %d, %d still held", len(h.b.acquired), h.b.released, h.b.held)
	}
	if h.b.maxHeld > 2 {
		t.Fatalf("%d sessions held at once, want at most 2", h.b.maxHeld)
	}
	if h.b.moved == 0 {
		t.Fatal("the trace never regrouped a live lane")
	}
	h.checkOutputs()
}

// TestCoreCancel: a cancelled request gives up its lane, or its place in
// the queue, at the next step boundary; a waiter takes the lane in that
// same step; the request is handed back exactly once and nothing is
// written to its rows afterwards.
func TestCoreCancel(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 2})
	h.submit(0, 6)
	h.submit(1, 6)
	h.submit(2, 2)
	h.submit(3, 2)
	h.submit(4, 2)
	h.advance()
	h.mustCompose("opened", 0, 1)

	h.reqs[1].cancelled.Store(true) // seated
	h.reqs[3].cancelled.Store(true) // in the middle of the queue
	var snapshot [][]float32
	for _, row := range h.outs[1] {
		snapshot = append(snapshot, append([]float32(nil), row...))
	}
	h.advance()
	h.mustCompose("waiter took the cancelled lane at the very next step", 0, 2)
	if !eqInts(h.completed, []int{1, 3}) {
		t.Fatalf("handed back %v at the boundary, want the cancelled [1 3]", h.completed)
	}
	if h.c.queueLen() != 1 {
		t.Fatalf("queue %d, want only request 4 left", h.c.queueLen())
	}
	h.drain()
	if !eqInts(h.completed, []int{1, 3, 2, 4, 0}) {
		t.Fatalf("hand-back order %v, want [1 3 2 4 0], each exactly once", h.completed)
	}
	if h.reqs[1].next != 1 || h.reqs[3].next != 0 {
		t.Fatalf("cancelled requests kept being scored: %d and %d frames", h.reqs[1].next, h.reqs[3].next)
	}
	if err := mustEqual(h.outs[1], snapshot); err != nil {
		t.Fatalf("row written after the boundary that saw the cancel: %v", err)
	}
	h.checkOutputs()

	// Cancelling the only lane leaves nothing to step: the boundary hands
	// the request back and releases the panel. Cancelling every waiter
	// leaves nothing to open.
	h.submit(5, 4)
	h.advance()
	h.reqs[5].cancelled.Store(true)
	h.submit(6, 4)
	h.reqs[6].cancelled.Store(true)
	h.drain()
	if !eqInts(h.completed[5:], []int{5, 6}) {
		t.Fatalf("handed back %v, want [5 6]", h.completed[5:])
	}
	if h.b.held != 0 || h.c.runnable() {
		t.Fatalf("%d sessions held, runnable=%v after everything was cancelled", h.b.held, h.c.runnable())
	}
	h.submit(7, 1)
	h.reqs[7].cancelled.Store(true)
	h.drain()
	if got := len(h.b.widths()); got != 3 {
		t.Fatalf("%d sessions acquired, want 3 (wide, shrunk, request 5): a queue of cancelled requests must not open a panel", got)
	}
}
