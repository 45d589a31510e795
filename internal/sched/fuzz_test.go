package sched

import (
	"testing"
	"time"
)

// FuzzSchedTrace drives the deterministic core with an arbitrary byte
// stream decoded as (config, events) and checks the scheduler's hard
// invariants on every trace:
//
//   - at most one session is live between advances (two only while lanes
//     move from one to the other), and its width is 1 or MaxBatch;
//   - the queue never exceeds QueueDepth (admission control is airtight);
//   - no request is left queued by a step boundary at which a lane was free
//     or the panel could still grow: if anything waits after an advance,
//     the step it drove ran MaxBatch live lanes;
//   - the core always drains in bounded work (no deadlock / livelock);
//   - every admitted request is handed back exactly once, and the rows it
//     was scored for are bit-identical to the serial oracle regardless of
//     how the trace interleaved arrivals, cancellations, grows, shrinks and
//     mid-flight joins — all of them when it was not cancelled.
func FuzzSchedTrace(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 1, 4, 0x05, 0x11, 0x22, 0x05, 0x33})       // submits + ticks
	f.Add([]byte{7, 2, 1, 0x00, 0x00, 0x41, 0x52, 0x63, 0x74}) // ragged lengths
	f.Add([]byte{1, 0, 6, 0x10, 0x20, 0xff, 0x30, 0x05, 0x05, 0x05})
	f.Add([]byte{3, 0, 6, 0x1e, 0x02, 0x0a, 0x02, 0x04, 0x02, 0x02, 0x0f, 0x02, 0x02}) // grow, cancel, shrink
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{
			MaxBatch:   int(data[0])%5 + 1,
			Window:     time.Duration(data[1]%4) * time.Millisecond, // ignored by contract
			QueueDepth: int(data[2])%7 + 1,
		}
		cfg = cfg.withDefaults()
		b := newFakeBatcher(3, 2)
		c := newCore(b, cfg)
		now := time.Unix(0, 0)

		type inflight struct {
			id     int
			r      *request
			frames [][]float32
			out    [][]float32
		}
		byReq := map[*request]*inflight{}
		var admitted []*inflight
		handedBack := map[int]int{}
		closed := false

		// One advance bound for the whole trace: generous, but a wedged
		// core (stuck runnable without progress) still trips it.
		budget := 100_000
		advance := func() {
			if budget == 0 {
				t.Fatalf("core exceeded the advance budget (live=%d queued=%d)", c.live, c.n)
			}
			budget--
			steps := b.steps
			for _, r := range c.advance(now) {
				fl := byReq[r]
				if fl == nil {
					t.Fatal("hand-back of a request that was never admitted")
				}
				handedBack[fl.id]++
			}
			if b.held > 1 {
				t.Fatalf("%d sessions live after an advance", b.held)
			}
			if c.sess != nil && c.width != 1 && c.width != cfg.MaxBatch {
				t.Fatalf("live panel is %d wide, want 1 or %d", c.width, cfg.MaxBatch)
			}
			if c.n > 0 && b.steps != steps && (b.lastWidth != cfg.MaxBatch || b.lastActive != cfg.MaxBatch) {
				t.Fatalf("%d requests left queued by a boundary whose step ran %d live lanes at width %d (MaxBatch %d)",
					c.n, b.lastActive, b.lastWidth, cfg.MaxBatch)
			}
		}

		for _, op := range data[3:] {
			switch op % 5 {
			case 0: // submit a request of 1..8 frames
				T := int(op/5)%8 + 1
				id := len(admitted)
				fl := &inflight{id: id, frames: traceFrames(id, T, b.inDim), out: outRows(T, b.outDim)}
				fl.r = &request{done: make(chan struct{}, 1), frames: fl.frames, out: fl.out}
				err := c.submit(fl.r, now)
				switch {
				case closed:
					if err != ErrClosed {
						t.Fatalf("submit after close err = %v, want ErrClosed", err)
					}
				case err == nil:
					byReq[fl.r] = fl
					admitted = append(admitted, fl)
				case err != ErrQueueFull:
					t.Fatalf("submit err = %v", err)
				}
			case 1: // advance time by 0..51 ms
				now = now.Add(time.Duration(op/5) * time.Millisecond)
			case 2: // run one unit of core work, if there is any
				if c.runnable() {
					advance()
				}
			case 3: // close once, partway through the trace
				closed = true
				c.closed = true
			case 4: // the caller of some admitted request gives up
				if len(admitted) > 0 {
					fl := admitted[int(op/5)%len(admitted)]
					if handedBack[fl.id] == 0 {
						fl.r.cancelled.Store(true)
					}
				}
			}
			if c.queueLen() > cfg.QueueDepth {
				t.Fatalf("queue %d exceeds QueueDepth %d", c.queueLen(), cfg.QueueDepth)
			}
		}

		c.closed = true
		for c.runnable() {
			advance()
		}
		if c.sess != nil || c.n != 0 || c.live != 0 {
			t.Fatalf("core not idle after drain (live=%d queued=%d)", c.live, c.n)
		}

		for _, w := range b.widths() {
			if w != 1 && w != cfg.MaxBatch {
				t.Fatalf("acquired width %d, want 1 or %d (widths %v)", w, cfg.MaxBatch, b.widths())
			}
		}
		if b.released != len(b.acquired) {
			t.Fatalf("acquired %d sessions, released %d", len(b.acquired), b.released)
		}
		if b.maxHeld > 2 {
			t.Fatalf("%d sessions held at once", b.maxHeld)
		}
		for _, fl := range admitted {
			if handedBack[fl.id] != 1 {
				t.Fatalf("request %d handed back %d times", fl.id, handedBack[fl.id])
			}
			scored := fl.r.next
			if !fl.r.cancelled.Load() && scored != len(fl.frames) {
				t.Fatalf("request %d handed back after %d of %d frames without being cancelled", fl.id, scored, len(fl.frames))
			}
			want := fakeRef(b.inDim, b.outDim, fl.frames)
			if err := mustEqual(fl.out[:scored], want[:scored]); err != nil {
				t.Fatalf("request %d diverges from serial oracle: %v", fl.id, err)
			}
			for _, row := range fl.out[scored:] {
				for _, v := range row {
					if v != 0 {
						t.Fatalf("request %d: a row past the %d scored frames was written", fl.id, scored)
					}
				}
			}
		}
	})
}
