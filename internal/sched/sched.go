package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rtmobile/internal/obs"
)

// Scheduler is the async shell around the core state machine: it owns the
// dispatcher goroutine, the wake/stop plumbing, and the request free list.
// All scheduling decisions are the core's; the shell runs it whenever it is
// runnable and sleeps until the next submission otherwise.
type Scheduler struct {
	clock Clock
	cfg   Config

	mu   sync.Mutex
	core *core
	// queued mirrors core.queueLen() as of the last unlock, so QueueLen
	// never waits on mu.
	queued atomic.Int64

	wake chan struct{} // cap 1: submissions nudge the dispatcher
	stop chan struct{} // closed once by Close
	done chan struct{} // closed when the dispatcher exits

	closeOnce sync.Once

	freeMu sync.Mutex
	free   []*request

	streamMu    sync.Mutex
	streamLanes int
}

// New starts a scheduler over the batcher and returns it running. Close
// finishes admitted work and stops it.
func New(b Batcher, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		clock: cfg.Clock,
		cfg:   cfg,
		core:  newCore(b, cfg),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.core.runStep = s.stepUnlocked
	go s.run()
	return s
}

// Config reports the scheduler's resolved configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// QueueLen reports how many admitted requests are waiting for a lane.
func (s *Scheduler) QueueLen() int { return int(s.queued.Load()) }

// getReq checks a request out of the free list.
func (s *Scheduler) getReq() *request {
	s.freeMu.Lock()
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		return r
	}
	s.freeMu.Unlock()
	return &request{done: make(chan struct{}, 1)}
}

// putReq returns a request whose token has been consumed, so the core no
// longer references it.
func (s *Scheduler) putReq(r *request) {
	r.frames, r.out, r.trace = nil, nil, nil
	r.cancelled.Store(false)
	s.freeMu.Lock()
	s.free = append(s.free, r)
	s.freeMu.Unlock()
}

// Infer scores one utterance through the batching tier and returns freshly
// allocated posterior rows. Blocks until the result is ready, admission
// rejects it (ErrQueueFull), the scheduler closes (ErrClosed), or ctx is
// done.
func (s *Scheduler) Infer(ctx context.Context, frames [][]float32) ([][]float32, error) {
	return s.InferTraced(ctx, nil, frames)
}

// InferInto is the allocation-free variant: posteriors land in dst, which
// must have one OutputDim-wide row per frame. Whatever it returns, the
// scheduler has finished with dst: a cancelled request gives up its lane
// (or its place in the queue) at the next step boundary and InferInto
// returns ctx's error only after that, so dst is the caller's to reuse at
// once.
func (s *Scheduler) InferInto(ctx context.Context, dst, frames [][]float32) error {
	return s.InferTracedInto(ctx, nil, dst, frames)
}

// InferTraced is Infer with a request trace attached (nil for none): the
// scheduler records queue-wait, batch-formation, generation, and kernel
// spans into tr as the request moves through the batching tier.
func (s *Scheduler) InferTraced(ctx context.Context, tr *obs.ReqTrace, frames [][]float32) ([][]float32, error) {
	outDim := s.core.outDim
	flat := make([]float32, len(frames)*outDim)
	out := make([][]float32, len(frames))
	for t := range out {
		out[t] = flat[t*outDim : (t+1)*outDim]
	}
	if err := s.InferTracedInto(ctx, tr, out, frames); err != nil {
		return nil, err
	}
	return out, nil
}

// InferTracedInto is InferInto with a request trace attached. Like dst, tr
// is back in the caller's hands on every return.
func (s *Scheduler) InferTracedInto(ctx context.Context, tr *obs.ReqTrace, dst, frames [][]float32) error {
	if len(dst) != len(frames) {
		return fmt.Errorf("sched: dst has %d rows for %d frames", len(dst), len(frames))
	}
	if len(frames) == 0 {
		return nil // nothing to score; the core only ever sees real utterances
	}
	r := s.getReq()
	r.frames, r.out, r.trace = frames, dst, tr
	s.mu.Lock()
	now := s.clock.Now()
	err := s.core.submit(r, now)
	s.queued.Store(int64(s.core.queueLen()))
	s.mu.Unlock()
	if err != nil {
		s.putReq(r)
		return err
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		// The core drops the request at its next step boundary — at most the
		// step in flight away — and sends the token once nothing can write
		// dst or tr any more; the lane is a waiter's from that boundary on.
		r.cancelled.Store(true)
		<-r.done
		if r.next < len(frames) {
			s.putReq(r)
			return ctx.Err()
		}
		// The step in flight scored the last frame: the result stands.
	}
	if m := obs.M(); m != nil {
		m.SchedLatency.Observe(s.clock.Now().Sub(now).Nanoseconds())
	}
	s.putReq(r)
	return nil
}

// AcquireStreamLane admits a long-lived streaming session against the
// MaxStreams budget. The release func must be called exactly once when the
// session ends; ErrQueueFull means the budget is exhausted (429 path).
func (s *Scheduler) AcquireStreamLane() (release func(), err error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.streamLanes >= s.cfg.MaxStreams {
		if m := obs.M(); m != nil {
			m.SchedRejected.Inc()
		}
		return nil, ErrQueueFull
	}
	s.streamLanes++
	if m := obs.M(); m != nil {
		m.StreamSessions.Inc()
		m.StreamLanes.Set(int64(s.streamLanes))
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			s.streamMu.Lock()
			s.streamLanes--
			if m := obs.M(); m != nil {
				m.StreamLanes.Set(int64(s.streamLanes))
			}
			s.streamMu.Unlock()
		})
	}, nil
}

// Close stops admission, runs every admitted request to completion, and
// waits for the dispatcher to exit (or ctx to give up on the wait — the
// admitted work is not abandoned).
func (s *Scheduler) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.core.closed = true
		s.mu.Unlock()
		close(s.stop)
	})
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stepUnlocked runs a panel step with mu released, so a request that
// arrives while the panel computes is queued at once and seated at the
// next boundary. Without it, a submitter blocked on mu competes with the
// dispatcher re-locking after every step and can lose for as long as Go's
// 1 ms starvation handoff — many steps — while its lane-mates finish.
func (s *Scheduler) stepUnlocked(sess Session) {
	s.mu.Unlock()
	sess.Step()
	s.mu.Lock()
}

// run is the dispatcher loop: one unit of core work per lock hold (so
// cancellations take effect between panel steps, and submissions queue
// during them), asleep only while the core has nothing to do, gone once
// closed and drained.
func (s *Scheduler) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if s.core.runnable() {
			completed := s.core.advance(s.clock.Now())
			s.queued.Store(int64(s.core.queueLen()))
			s.mu.Unlock()
			for _, r := range completed {
				r.done <- struct{}{}
			}
			continue
		}
		stopping := s.core.closed
		s.mu.Unlock()
		if stopping {
			return
		}
		select {
		case <-s.wake:
		case <-s.stop:
		}
	}
}
