package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"rtmobile/internal/obs"
)

// Request-trace propagation tests: the scripted harness drives the core
// with explicit clocks, so every span — queue wait, batch formation,
// generation membership, kernel accumulation — is asserted to the
// nanosecond, not approximately.

// submitTraced enqueues a T-frame request tagged id carrying a trace.
func (h *harness) submitTraced(id, T int, tr *obs.ReqTrace) error {
	h.t.Helper()
	frames := traceFrames(id, T, h.b.inDim)
	out := outRows(T, h.b.outDim)
	r := &request{done: make(chan struct{}, 1), frames: frames, out: out, trace: tr}
	if err := h.c.submit(r, h.now); err != nil {
		return err
	}
	h.frames[id] = frames
	h.outs[id] = out
	h.byReq[r] = id
	h.reqs[id] = r
	return nil
}

func spanOf(t *testing.T, tr *obs.ReqTrace, kind obs.ReqSpanKind) obs.ReqSpan {
	t.Helper()
	for _, sp := range tr.Spans() {
		if sp.Kind == kind {
			return sp
		}
	}
	t.Fatalf("trace has no %v span: %+v", kind, tr.Spans())
	return obs.ReqSpan{}
}

func hasSpan(tr *obs.ReqTrace, kind obs.ReqSpanKind) bool {
	for _, sp := range tr.Spans() {
		if sp.Kind == kind {
			return true
		}
	}
	return false
}

func TestCoreRecordsFounderSpans(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 4, Window: 2 * time.Millisecond})
	var tr obs.ReqTrace
	tr.Reset()
	if err := h.submitTraced(0, 3, &tr); err != nil {
		t.Fatal(err)
	}
	h.advance() // a lone request: seated and stepped at the arrival instant
	h.tick(time.Millisecond)
	h.drain()
	h.checkOutputs()

	qw := spanOf(t, &tr, obs.ReqSpanQueueWait)
	if qw.Dur != 0 {
		t.Errorf("queue wait = %dns, want 0: nothing waits for a window", qw.Dur)
	}
	if qw.Lane != 0 || qw.Width != 1 {
		t.Errorf("queue wait lane/width = %d/%d, want 0/1", qw.Lane, qw.Width)
	}
	bf := spanOf(t, &tr, obs.ReqSpanBatchForm)
	if bf.Dur != 0 {
		t.Errorf("batch form = %dns, want 0 for a lone request", bf.Dur)
	}
	gen := spanOf(t, &tr, obs.ReqSpanGeneration)
	if gen.Width != 1 || gen.Dur != time.Millisecond.Nanoseconds() {
		t.Errorf("generation width/dur = %d/%dns, want 1/1ms", gen.Width, gen.Dur)
	}
	k := spanOf(t, &tr, obs.ReqSpanKernel)
	if k.Dur != 3*fakeStepNs {
		t.Errorf("kernel = %dns, want %d (3 steps × fake cost)", k.Dur, 3*fakeStepNs)
	}
	if tr.Steps != 3 {
		t.Errorf("steps = %d, want 3", tr.Steps)
	}
}

// TestCoreGrowRecordsBatchForm: the request a panel is grown for records
// batch_form (admission → the grow) and the lane and width it was seated
// in; the request that was already aboard reports, in its generation span,
// the lane and width it finished in — here the narrow shape it was moved
// back to.
func TestCoreGrowRecordsBatchForm(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 4})
	var first, second obs.ReqTrace
	first.Reset()
	second.Reset()
	h.submitTraced(0, 6, &first)
	h.advance()
	h.submitTraced(1, 2, &second)
	h.tick(300 * time.Microsecond) // the step in flight when it arrived
	h.drain()
	h.checkOutputs()

	bf := spanOf(t, &second, obs.ReqSpanBatchForm)
	if bf.Dur != (300*time.Microsecond).Nanoseconds() || bf.Lane != 1 || bf.Width != 4 {
		t.Errorf("grown-for batch_form = %dns lane %d width %d, want 300µs in lane 1 of 4", bf.Dur, bf.Lane, bf.Width)
	}
	if gen := spanOf(t, &second, obs.ReqSpanGeneration); gen.Lane != 1 || gen.Width != 4 {
		t.Errorf("second request finished in lane %d of %d, want 1 of 4", gen.Lane, gen.Width)
	}
	if qw := spanOf(t, &first, obs.ReqSpanQueueWait); qw.Width != 1 {
		t.Errorf("first request was seated at width %d, want 1", qw.Width)
	}
	if gen := spanOf(t, &first, obs.ReqSpanGeneration); gen.Lane != 0 || gen.Width != 1 {
		t.Errorf("migrated request finished in lane %d of %d, want 0 of 1 (grown, then shrunk)", gen.Lane, gen.Width)
	}
	if first.Steps != 6 || second.Steps != 2 {
		t.Errorf("steps = %d/%d, want 6/2", first.Steps, second.Steps)
	}
}

func TestCoreMidFlightJoinSkipsBatchForm(t *testing.T) {
	h := newHarness(t, Config{MaxBatch: 2})
	var founder, short, joiner obs.ReqTrace
	founder.Reset()
	short.Reset()
	joiner.Reset()
	h.submitTraced(0, 4, &founder)
	h.submitTraced(1, 1, &short)
	h.advance() // opens wide; the one-frame request retires, freeing lane 1
	h.tick(500 * time.Microsecond)
	if err := h.submitTraced(2, 2, &joiner); err != nil {
		t.Fatal(err)
	}
	h.drain()
	h.checkOutputs()
	h.mustWidths(2, 1)

	if !hasSpan(&founder, obs.ReqSpanBatchForm) || !hasSpan(&short, obs.ReqSpanBatchForm) {
		t.Error("a request the panel was opened for lost its batch_form span")
	}
	if hasSpan(&joiner, obs.ReqSpanBatchForm) {
		t.Error("a free-lane joiner must not record batch_form")
	}
	jq := spanOf(t, &joiner, obs.ReqSpanQueueWait)
	if jq.Dur != 0 || jq.Lane != 1 || jq.Width != 2 {
		t.Errorf("joiner queue wait = %dns lane %d width %d, want 0 in lane 1 of 2", jq.Dur, jq.Lane, jq.Width)
	}
	if joiner.Steps != 2 {
		t.Errorf("joiner steps = %d, want 2", joiner.Steps)
	}
	// Kernel time is the shared panel step, attributed in full to each
	// traced participant.
	jk := spanOf(t, &joiner, obs.ReqSpanKernel)
	if jk.Dur != 2*fakeStepNs {
		t.Errorf("joiner kernel = %dns, want %d", jk.Dur, 2*fakeStepNs)
	}
}

// TestCoreRegroupCounters: every grow, shrink and moved lane is counted.
func TestCoreRegroupCounters(t *testing.T) {
	was := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })
	m := obs.M()
	opened, grows, shrinks, moved := m.SchedDispatch.Value(), m.SchedGrows.Value(), m.SchedShrinks.Value(), m.SchedLanesMoved.Value()

	h := newHarness(t, Config{MaxBatch: 4})
	h.submit(0, 6)
	h.advance()
	h.submit(1, 2) // grows the panel, leaves early, the panel shrinks back
	h.drain()
	h.checkOutputs()
	got := [4]uint64{m.SchedDispatch.Value() - opened, m.SchedGrows.Value() - grows,
		m.SchedShrinks.Value() - shrinks, m.SchedLanesMoved.Value() - moved}
	if want := [4]uint64{1, 1, 1, 2}; got != want {
		t.Fatalf("opened/grows/shrinks/lanes moved = %v, want %v", got, want)
	}
}

func TestCoreUntracedLanesUnaffected(t *testing.T) {
	// Mixing traced and untraced requests in one panel must neither panic
	// nor attribute spans to the untraced request.
	h := newHarness(t, Config{MaxBatch: 2})
	var tr obs.ReqTrace
	tr.Reset()
	if err := h.submitTraced(0, 2, &tr); err != nil {
		t.Fatal(err)
	}
	if err := h.submit(1, 3); err != nil {
		t.Fatal(err)
	}
	h.drain()
	h.checkOutputs()
	if tr.Steps != 2 {
		t.Errorf("traced steps = %d, want 2", tr.Steps)
	}
}

func TestSchedulerInferTraced(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 2})
	defer s.Close(context.Background())

	var pool obs.TracePool
	tr := pool.Get()
	frames := traceFrames(7, 5, 3)
	got, err := s.InferTraced(context.Background(), tr, frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustEqual(got, fakeRef(3, 2, frames)); err != nil {
		t.Fatal(err)
	}
	if tr.Steps != 5 {
		t.Errorf("steps = %d, want 5", tr.Steps)
	}
	for _, kind := range []obs.ReqSpanKind{
		obs.ReqSpanQueueWait, obs.ReqSpanBatchForm,
		obs.ReqSpanGeneration, obs.ReqSpanKernel,
	} {
		if !hasSpan(tr, kind) {
			t.Errorf("missing %v span", kind)
		}
	}
	pool.Put(tr)

	// The free-listed request must not leak the trace into an untraced
	// follow-up (putReq clears it; this exercises the recycled object).
	got2, err := s.Infer(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustEqual(got2, fakeRef(3, 2, frames)); err != nil {
		t.Fatal(err)
	}
	tr2 := pool.Get()
	if len(tr2.Spans()) != 0 {
		t.Errorf("recycled trace carries %d spans", len(tr2.Spans()))
	}
}

func TestSchedulerTracedConcurrent(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 4})
	defer s.Close(context.Background())
	var pool obs.TracePool
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tr := pool.Get()
				frames := traceFrames(g*100+i, 1+i%6, 3)
				got, err := s.InferTraced(context.Background(), tr, frames)
				if err != nil {
					errs <- err
					return
				}
				if err := mustEqual(got, fakeRef(3, 2, frames)); err != nil {
					errs <- err
					return
				}
				if int(tr.Steps) != len(frames) {
					t.Errorf("steps = %d, want %d", tr.Steps, len(frames))
				}
				pool.Put(tr)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTracedWarmPathNoAllocs is the satellite gate: the warm traced
// inference path — trace checkout, traced submit, spans, completion,
// recycle — holds 0 allocs/op.
func TestTracedWarmPathNoAllocs(t *testing.T) {
	b := newFakeBatcher(3, 2)
	s := New(b, Config{MaxBatch: 1})
	defer s.Close(context.Background())
	var pool obs.TracePool
	ctx := context.Background()
	frames := traceFrames(1, 4, 3)
	dst := outRows(4, 2)
	// Warm: request free list, trace pool, session arena.
	for i := 0; i < 4; i++ {
		tr := pool.Get()
		if err := s.InferTracedInto(ctx, tr, dst, frames); err != nil {
			t.Fatal(err)
		}
		pool.Put(tr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr := pool.Get()
		if err := s.InferTracedInto(ctx, tr, dst, frames); err != nil {
			t.Fatal(err)
		}
		pool.Put(tr)
	})
	if allocs != 0 {
		t.Fatalf("warm traced inference = %v allocs/op, want 0", allocs)
	}
}
