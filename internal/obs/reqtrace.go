package obs

import "sync"

// Request-scoped tracing. A ReqTrace follows one inference request through
// the serving stack — HTTP ingress, the continuous-batching scheduler's
// queue and panel generations, the packed kernels, response serialization —
// as a fixed-capacity span tree identified by a W3C trace ID. Unlike a
// stage Tracer (per-deployment totals per layer and kernel), a ReqTrace
// answers "where did *this* request's milliseconds go".
//
// The struct is fixed-size (no slices growing per request) and recycled
// through a TracePool free list, so attaching a trace to every request
// keeps the steady-state serve path at zero allocations per request — the
// same discipline as the rest of this package, gated by AllocsPerRun tests.

// ReqSpanKind labels what one request-scoped span measures.
type ReqSpanKind uint8

const (
	// ReqSpanParse is request-body decoding on the serve tier.
	ReqSpanParse ReqSpanKind = iota
	// ReqSpanQueueWait runs from scheduler admission to the request being
	// seated in a panel lane (Lane/Width record where it landed).
	ReqSpanQueueWait
	// ReqSpanBatchForm runs from admission to the panel being opened or
	// grown for this request: 0 for a lone request (the scheduler never
	// waits on purpose), otherwise the rest of the step that was in flight
	// when it arrived. Absent for a request that joined a lane which was
	// simply free.
	ReqSpanBatchForm
	// ReqSpanGeneration is the request's panel membership: seated → retired.
	// Lane and Width are where it finished; a request moved between the
	// scheduler's two panel shapes mid-flight was seated elsewhere (its
	// queue_wait span says where).
	ReqSpanGeneration
	// ReqSpanKernel accumulates the measured compute time of every panel
	// step the request participated in (wall time of the shared lockstep
	// step, attributed to each live lane that rode it).
	ReqSpanKernel
	// ReqSpanSerialize is response encoding on the serve tier.
	ReqSpanSerialize

	// NumReqSpanKinds is the number of distinct kinds.
	NumReqSpanKinds
)

// String names the kind (the JSON and Chrome trace exports use it).
func (k ReqSpanKind) String() string {
	switch k {
	case ReqSpanParse:
		return "parse"
	case ReqSpanQueueWait:
		return "queue_wait"
	case ReqSpanBatchForm:
		return "batch_form"
	case ReqSpanGeneration:
		return "generation"
	case ReqSpanKernel:
		return "kernel"
	case ReqSpanSerialize:
		return "serialize"
	default:
		return "unknown"
	}
}

// ReqSpan is one recorded interval inside a request.
type ReqSpan struct {
	Kind  ReqSpanKind
	Lane  int16 // panel lane for scheduler spans; -1 when not applicable
	Width int16 // panel width for scheduler spans; 0 when not applicable
	Start int64 // wall-clock ns (UnixNano); 0 for accumulated spans
	Dur   int64 // elapsed ns
}

// MaxReqSpans bounds a request's span tree. The serve path records at most
// six spans per request (one per kind); the headroom absorbs re-queued or
// multi-generation requests. Overflow drops the span and counts it.
const MaxReqSpans = 12

// ReqTrace is one request's trace context. Obtain from a TracePool, thread
// through the scheduler via InferTraced, return with Put. Single-writer:
// exactly one goroutine mutates a ReqTrace at a time (the HTTP handler and
// the scheduler dispatcher hand it off; the scheduler's mutex orders their
// accesses).
type ReqTrace struct {
	ID     TraceID
	Parent SpanID // inbound traceparent's parent-id; zero when we are root
	Span   SpanID // this request's own span id (echoed on egress)
	Flags  byte   // inbound trace-flags, preserved on egress

	Model string // model name the request resolved to
	Start int64  // request start, wall-clock UnixNano
	End   int64  // request end, wall-clock UnixNano (0 while in flight)
	Err   bool   // the request failed server-side (5xx/429/drop)
	Steps int32  // lockstep panel steps the request participated in

	kernelIdx int8 // index of the accumulating kernel span; -1 until first
	dropped   int8 // spans dropped to the MaxReqSpans cap
	n         int8
	spans     [MaxReqSpans]ReqSpan
}

// Reset clears the trace for reuse.
func (t *ReqTrace) Reset() {
	*t = ReqTrace{kernelIdx: -1}
}

// AddSpan records one interval; silently drops (and counts) past the cap.
func (t *ReqTrace) AddSpan(kind ReqSpanKind, lane, width int16, start, dur int64) {
	if int(t.n) >= MaxReqSpans {
		if t.dropped < 127 {
			t.dropped++
		}
		return
	}
	t.spans[t.n] = ReqSpan{Kind: kind, Lane: lane, Width: width, Start: start, Dur: dur}
	t.n++
}

// AddKernel accumulates measured compute nanoseconds into the request's
// single kernel span (created on first use, stamped with the given start).
func (t *ReqTrace) AddKernel(start, dur int64) {
	if dur <= 0 {
		return
	}
	if t.kernelIdx < 0 {
		if int(t.n) >= MaxReqSpans {
			if t.dropped < 127 {
				t.dropped++
			}
			return
		}
		t.kernelIdx = t.n
		t.spans[t.n] = ReqSpan{Kind: ReqSpanKernel, Lane: -1, Start: start}
		t.n++
	}
	t.spans[t.kernelIdx].Dur += dur
}

// Spans returns the recorded spans (aliasing the trace's storage; read
// before recycling the trace).
func (t *ReqTrace) Spans() []ReqSpan { return t.spans[:t.n] }

// Dropped reports spans lost to the MaxReqSpans cap.
func (t *ReqTrace) Dropped() int { return int(t.dropped) }

// DurNs is the request's end-to-end nanoseconds (0 while in flight).
func (t *ReqTrace) DurNs() int64 {
	if t.End == 0 {
		return 0
	}
	return t.End - t.Start
}

// TracePool recycles ReqTrace objects so the per-request tracing path stays
// allocation-free at steady state. The zero value is ready to use.
type TracePool struct {
	mu   sync.Mutex
	free []*ReqTrace
}

// Get checks a reset trace out of the pool (allocating only when empty).
func (p *TracePool) Get() *ReqTrace {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		t.Reset()
		return t
	}
	p.mu.Unlock()
	t := &ReqTrace{}
	t.Reset()
	return t
}

// Put returns a trace to the pool. The caller must not touch it afterwards.
func (p *TracePool) Put(t *ReqTrace) {
	if t == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
}
