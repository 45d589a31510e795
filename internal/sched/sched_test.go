package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Async scheduler tests. The dispatcher never waits on purpose, so the
// tests that need requests to pile up hold it inside a panel step with the
// fake batcher's gate and decide when that step ends. The only waiting is
// liveness-bounded spinning (no time.Sleep in any assertion).

// waitUntil spins (yielding) until cond holds; fails the test after a
// real-time liveness bound. It asserts nothing about timing — only that
// the scheduler eventually makes externally visible progress.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// gatedScheduler starts a scheduler whose panel steps each wait for one
// token on the returned batcher's gate.
func gatedScheduler(cfg Config) (*Scheduler, *fakeBatcher) {
	b := newFakeBatcher(3, 2)
	b.gate = make(chan struct{})
	return New(b, cfg), b
}

// longUtterance is T frames that all alias one row, so an utterance long
// enough to outlast a test costs one slice of headers.
func longUtterance(id, T, inDim int) [][]float32 {
	frame := traceFrames(id, 1, inDim)[0]
	frames := make([][]float32, T)
	for i := range frames {
		frames[i] = frame
	}
	return frames
}

// holdLane submits a long blocker and returns once the dispatcher is
// parked inside its first step: from here the panel advances one step per
// gate token, and the blocker outlasts any number of them a test feeds.
// wait blocks until the blocker has completed (close the gate first).
func holdLane(t *testing.T, s *Scheduler, b *fakeBatcher) (wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		frames := longUtterance(99, 1<<16, b.inDim)
		out, err := s.Infer(context.Background(), frames)
		if err != nil {
			t.Errorf("blocker: %v", err)
			return
		}
		if err := mustEqual(out, fakeRef(b.inDim, b.outDim, frames)); err != nil {
			t.Errorf("blocker diverges from serial oracle: %v", err)
		}
	}()
	waitUntil(t, "the blocker's first step", func() bool { return b.parked.Load() == 1 })
	return func() { <-done }
}

// feedUntil lets the held panel take one step per poll until cond holds.
// Submissions queue while a step waits at the gate (the dispatcher releases
// the scheduler mutex around each step) and are seated at the next boundary.
func feedUntil(t *testing.T, b *fakeBatcher, what string, cond func() bool) {
	t.Helper()
	waitUntil(t, what, func() bool {
		if cond() {
			return true
		}
		select {
		case b.gate <- struct{}{}:
		default:
		}
		return false
	})
}

// TestSchedulerCoalescesWaiters: requests that arrive while a lone
// utterance is being stepped ride the next step together — the narrow
// panel grows to MaxBatch with all of them aboard, every response exact.
func TestSchedulerCoalescesWaiters(t *testing.T) {
	s, b := gatedScheduler(Config{MaxBatch: 8})
	defer s.Close(context.Background())
	wait := holdLane(t, s, b)

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames := traceFrames(i, 4, b.inDim)
			out, err := s.Infer(context.Background(), frames)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if err := mustEqual(out, fakeRef(b.inDim, b.outDim, frames)); err != nil {
				t.Errorf("request %d diverges from serial oracle: %v", i, err)
			}
		}(i)
	}
	// The three queue while the blocker's step waits at the gate (the
	// dispatcher does not hold the scheduler mutex across a step); the
	// boundary after it grows the panel, and the waiters take its free lanes.
	for deadline := time.Now().Add(10 * time.Second); s.QueueLen() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			close(b.gate) // free the parked step, so the deferred Close returns
			t.Fatalf("%d of %d waiters queued while a step was in flight", s.QueueLen(), n)
		}
	}
	feedUntil(t, b, "a step with all four aboard", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.lastWidth == 8 && b.lastActive == n+1
	})
	close(b.gate)
	wg.Wait()
	wait()
	if w := b.widths(); len(w) < 2 || w[0] != 1 || w[1] != 8 {
		t.Fatalf("acquired widths %v, want a narrow panel grown to 8", w)
	}
}

// frozenClock never moves.
type frozenClock struct{}

func (frozenClock) Now() time.Time { return time.Unix(0, 0) }

// TestSchedulerFullPanelNoWait: MaxBatch arrivals complete with the clock
// frozen, whatever Window holds — nothing in the scheduler waits on time.
func TestSchedulerFullPanelNoWait(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 2, Window: time.Hour, Clock: frozenClock{}})
	defer s.Close(context.Background())

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Infer(context.Background(), traceFrames(i, 3, b.inDim)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait() // completes without the clock ever advancing
	for _, w := range b.widths() {
		if w != 1 && w != 2 {
			t.Fatalf("acquired widths %v, want only the two shapes 1 and 2", b.widths())
		}
	}
}

// TestSchedulerOverload: with the lane held and the queue full, admission
// rejects with ErrQueueFull; the parked requests still complete afterwards.
func TestSchedulerOverload(t *testing.T) {
	s, b := gatedScheduler(Config{MaxBatch: 1, QueueDepth: 2})
	defer s.Close(context.Background())
	wait := holdLane(t, s, b)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Infer(context.Background(), traceFrames(i, 2, b.inDim)); err != nil {
				t.Errorf("parked request %d: %v", i, err)
			}
		}(i)
	}
	feedUntil(t, b, "queue full", func() bool { return s.QueueLen() == 2 })
	rejected := make(chan error, 1)
	go func() {
		_, err := s.Infer(context.Background(), traceFrames(9, 2, b.inDim))
		rejected <- err
	}()
	var err error
	feedUntil(t, b, "the overload verdict", func() bool {
		select {
		case err = <-rejected:
			return true
		default:
			return false
		}
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload err = %v, want ErrQueueFull", err)
	}
	close(b.gate)
	wg.Wait()
	wait()
}

// TestSchedulerCloseDrains: Close completes every admitted request (no
// dropped responses) and rejects later submissions with ErrClosed.
func TestSchedulerCloseDrains(t *testing.T) {
	s, b := gatedScheduler(Config{MaxBatch: 1})
	wait := holdLane(t, s, b)

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames := traceFrames(i, 3, b.inDim)
			out, err := s.Infer(context.Background(), frames)
			if err != nil {
				t.Errorf("parked request %d dropped at shutdown: %v", i, err)
				return
			}
			if err := mustEqual(out, fakeRef(b.inDim, b.outDim, frames)); err != nil {
				t.Errorf("request %d diverges: %v", i, err)
			}
		}(i)
	}
	feedUntil(t, b, "requests queued", func() bool { return s.QueueLen() == n })
	// Close with three requests still waiting for the one lane.
	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	close(b.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	wait()
	if _, err := s.Infer(context.Background(), traceFrames(9, 1, b.inDim)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSchedulerContextCancel: a caller whose context ends gets ctx.Err and
// its lane back to the scheduler at the next step boundary — the utterance
// is not scored to its last frame — with the request object returned to
// the free list exactly once and dst never written after Infer returns.
func TestSchedulerContextCancel(t *testing.T) {
	s, b := gatedScheduler(Config{MaxBatch: 1})
	defer s.Close(context.Background())

	const T = 1 << 16
	frames := longUtterance(0, T, b.inDim)
	dst := outRows(T, b.outDim)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.InferInto(ctx, dst, frames) }()
	waitUntil(t, "the first step", func() bool { return b.parked.Load() == 1 })
	cancel()
	var err error
	steps := 0
	for err == nil {
		select {
		case b.gate <- struct{}{}: // one more step of the abandoned utterance
			steps++
		case err = <-done:
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InferInto err = %v", err)
	}
	if steps >= T {
		t.Fatalf("the abandoned utterance was scored to its last frame (%d steps)", steps)
	}
	s.freeMu.Lock()
	free := len(s.free)
	s.freeMu.Unlock()
	if free != 1 {
		t.Fatalf("free list holds %d requests after the cancel, want the 1 that was admitted", free)
	}
	snapshot := outRows(T, b.outDim)
	for i := range dst {
		copy(snapshot[i], dst[i])
	}

	// The lane is free: with MaxBatch 1 a second request can only run in it.
	close(b.gate)
	next := traceFrames(1, 5, b.inDim)
	out, err := s.Infer(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustEqual(out, fakeRef(b.inDim, b.outDim, next)); err != nil {
		t.Fatal(err)
	}
	if err := mustEqual(dst, snapshot); err != nil {
		t.Fatalf("dst written after the cancelled InferInto returned: %v", err)
	}
	s.freeMu.Lock()
	free = len(s.free)
	s.freeMu.Unlock()
	if free != 1 {
		t.Fatalf("free list holds %d requests, want 1: the cancelled object was reused, once", free)
	}
	if w := b.widths(); len(w) != 2 {
		t.Fatalf("acquired widths %v, want one panel per request", w)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.held != 0 {
		t.Fatalf("%d sessions still held", b.held)
	}
}

// TestSchedulerRealClock: the default wall-clock path end to end, serial
// oracle equality.
func TestSchedulerRealClock(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 4})
	defer s.Close(context.Background())
	frames := traceFrames(7, 5, b.inDim)
	out, err := s.Infer(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustEqual(out, fakeRef(b.inDim, b.outDim, frames)); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerInferIntoShape: mis-shaped dst is rejected up front.
func TestSchedulerInferIntoShape(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{})
	defer s.Close(context.Background())
	err := s.InferInto(context.Background(), outRows(2, 2), traceFrames(0, 3, b.inDim))
	if err == nil {
		t.Fatal("dst/frames mismatch accepted")
	}
}

// TestStreamLaneBudget: stream-lane admission is bounded, released lanes
// are reusable, and release is idempotent.
func TestStreamLaneBudget(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 4, MaxStreams: 2})
	defer s.Close(context.Background())

	rel1, err := s.AcquireStreamLane()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.AcquireStreamLane()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireStreamLane(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third stream lane err = %v, want ErrQueueFull", err)
	}
	rel1()
	rel1() // idempotent: must not free a second slot
	if _, err := s.AcquireStreamLane(); err != nil {
		t.Fatalf("lane not reusable after release: %v", err)
	}
	if _, err := s.AcquireStreamLane(); !errors.Is(err, ErrQueueFull) {
		t.Fatal("double release freed two slots")
	}
	rel2()
}

// TestInferIntoZeroAlloc gates the steady-state dispatch path: with warm
// free lists, a whole submit → open → step → complete round trip performs
// zero heap allocations in the scheduler machinery — and so does one that
// grows the panel and shrinks it again (both shapes come back from the
// batcher's free list).
func TestInferIntoZeroAlloc(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 4})
	defer s.Close(context.Background())

	frames := traceFrames(0, 6, b.inDim)
	dst := outRows(6, b.outDim)
	ctx := context.Background()
	for i := 0; i < 8; i++ { // warm the request free list and fake arenas
		if err := s.InferInto(ctx, dst, frames); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.InferInto(ctx, dst, frames); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %v times per request, want 0", allocs)
	}

	// The regrouping path, scripted on a core: a second arrival grows the
	// panel, the first request's end shrinks it again.
	c := newCore(b, Config{MaxBatch: 4}.withDefaults())
	long := &request{frames: frames, out: dst}
	short := &request{frames: frames[:2], out: outRows(2, b.outDim)}
	now := time.Unix(0, 0)
	regroup := func() {
		c.submit(long, now)
		c.advance(now)
		c.submit(short, now)
		for c.runnable() {
			c.advance(now)
		}
	}
	regroup()
	moved := b.moved
	if allocs := testing.AllocsPerRun(100, regroup); allocs != 0 {
		t.Fatalf("growing and shrinking allocates %v times per cycle, want 0", allocs)
	}
	if got := b.moved - moved; got != 2*101 {
		t.Fatalf("%d lanes moved over 101 cycles, want one grow and one shrink each", got)
	}
}
