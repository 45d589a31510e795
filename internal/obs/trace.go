package obs

import (
	"sync/atomic"
	"time"
)

// Stage tracing. A Tracer records one Span per instrumented stage execution
// — a whole utterance, one stream step, one layer inside a step, one packed
// matrix kernel — into a fixed ring buffer, and aggregates (count, total
// ns) per (kind, id) slot. Both paths are allocation-free and lock-free, so
// a tracer can stay attached to a production engine: the hot loops pay one
// nil check when tracing is off and two clock reads plus a handful of
// atomic stores when it is on.

// StageKind labels what a span measures.
type StageKind uint8

const (
	// StageStep is one single-stream Stream step (all layers).
	StageStep StageKind = iota
	// StageLayer is one layer's stepper inside a step; ID is the layer index.
	StageLayer
	// StageKernel is one packed-program execution; ID is the program's
	// tracer ID (the matrix index for engine-owned programs).
	StageKernel
	// StageBatchStep is one lockstep panel step; Width is the batch width.
	StageBatchStep
	// StageInfer is one whole utterance through Engine.Infer.
	StageInfer
	// StageInferBatch is one whole batch through Engine.InferBatch.
	StageInferBatch
	// StageKernelFast is one fast-tier (FMA + f32 accumulation)
	// packed-program execution; ID is the program's tracer ID. Storage
	// width does not split either kernel kind: quantized programs run the
	// float32 kernels.
	StageKernelFast
	// StageEpilogue is one fused gate-epilogue pass (the non-GEMM tail of a
	// recurrent step: σ/tanh gates + state blend); ID is the layer index.
	// Subtracting it from StageLayer isolates matmul time.
	StageEpilogue

	// NumStageKinds is the number of distinct kinds (array sizing).
	NumStageKinds
)

// String names the kind.
func (k StageKind) String() string {
	switch k {
	case StageStep:
		return "step"
	case StageLayer:
		return "layer"
	case StageKernel:
		return "kernel"
	case StageBatchStep:
		return "batch_step"
	case StageInfer:
		return "infer"
	case StageInferBatch:
		return "infer_batch"
	case StageKernelFast:
		return "kernel_fast"
	case StageEpilogue:
		return "epilogue"
	default:
		return "unknown"
	}
}

// Span is one recorded stage execution.
type Span struct {
	Kind  StageKind
	ID    int32 // layer / matrix index within the kind; 0 when unused
	Width int32 // batch width (lanes); 1 for single-stream stages
	Start int64 // wall-clock ns (UnixNano) at stage entry
	Dur   int64 // elapsed ns
}

// ringSlot stores a span as three atomic words so concurrent writers and
// snapshot readers never race: meta packs kind/width/id, start and dur are
// whole words. After the ring wraps, a reader can observe the three words
// of two different generations of the slot — tolerable for a debug ring;
// the per-stage aggregation is the exact record.
type ringSlot struct {
	meta  atomic.Uint64 // kind<<56 | uint32(width)<<24 is not enough; see pack
	start atomic.Int64
	dur   atomic.Int64
}

// pack/unpack: kind in bits 56-63, width in bits 32-55 (24 bits, clamped),
// id in bits 0-31.
func packMeta(kind StageKind, id, width int32) uint64 {
	w := uint64(uint32(width)) & 0xFFFFFF
	return uint64(kind)<<56 | w<<32 | uint64(uint32(id))
}

func unpackMeta(m uint64) (kind StageKind, id, width int32) {
	return StageKind(m >> 56), int32(uint32(m)), int32(uint32(m>>32) & 0xFFFFFF)
}

// stageAgg is one (kind, id) aggregation cell.
type stageAgg struct {
	count atomic.Uint64
	ns    atomic.Int64
}

// Tracer is a fixed-capacity span recorder plus per-(kind, id) totals.
// Construct with NewTracer; all methods are safe for concurrent use. A nil
// *Tracer must not be Recorded into — call sites keep the nil check inline,
// which is the "tracing off" fast path.
type Tracer struct {
	ring  []ringSlot
	mask  uint64
	pos   atomic.Uint64
	agg   []stageAgg // NumStageKinds × maxIDs
	maxID int
}

// NewTracer builds a tracer with a ring of at least ringCap spans (rounded
// up to a power of two, minimum 64) and aggregation slots for stage IDs in
// [0, maxIDs). IDs outside the range still ring-record but fold their
// aggregation onto the last slot.
func NewTracer(ringCap, maxIDs int) *Tracer {
	cap := 64
	for cap < ringCap {
		cap <<= 1
	}
	if maxIDs < 1 {
		maxIDs = 1
	}
	return &Tracer{
		ring:  make([]ringSlot, cap),
		mask:  uint64(cap - 1),
		agg:   make([]stageAgg, int(NumStageKinds)*maxIDs),
		maxID: maxIDs,
	}
}

// RingCap reports the ring's span capacity.
func (t *Tracer) RingCap() int { return len(t.ring) }

// MaxIDs reports the per-kind aggregation slot count.
func (t *Tracer) MaxIDs() int { return t.maxID }

// aggSlot maps (kind, id) onto an aggregation cell, clamping out-of-range
// IDs onto the last slot.
func (t *Tracer) aggSlot(kind StageKind, id int32) *stageAgg {
	i := int(id)
	if i < 0 {
		i = 0
	}
	if i >= t.maxID {
		i = t.maxID - 1
	}
	return &t.agg[int(kind)*t.maxID+i]
}

// Record stores one span. Allocation-free and lock-free; any number of
// goroutines may record concurrently.
func (t *Tracer) Record(kind StageKind, id, width int32, start, dur int64) {
	slot := &t.ring[(t.pos.Add(1)-1)&t.mask]
	slot.meta.Store(packMeta(kind, id, width))
	slot.start.Store(start)
	slot.dur.Store(dur)
	a := t.aggSlot(kind, id)
	a.count.Add(1)
	a.ns.Add(dur)
}

// RecordSince is the common call shape: Record with dur measured from t0 by
// the monotonic clock and Start stamped from t0's wall clock.
func (t *Tracer) RecordSince(kind StageKind, id, width int32, t0 time.Time) {
	t.Record(kind, id, width, t0.UnixNano(), time.Since(t0).Nanoseconds())
}

// Recorded reports how many spans have been recorded in total (not capped
// by the ring size).
func (t *Tracer) Recorded() uint64 { return t.pos.Load() }

// Spans snapshots the ring's live spans, oldest first. Spans recorded
// concurrently with the snapshot may appear with mixed generations (the
// ring is advisory); the aggregation counters are the exact record.
func (t *Tracer) Spans() []Span {
	n := t.pos.Load()
	count := uint64(len(t.ring))
	if n < count {
		count = n
	}
	out := make([]Span, 0, count)
	startAt := n - count
	for i := uint64(0); i < count; i++ {
		slot := &t.ring[(startAt+i)&t.mask]
		kind, id, width := unpackMeta(slot.meta.Load())
		out = append(out, Span{
			Kind: kind, ID: id, Width: width,
			Start: slot.start.Load(), Dur: slot.dur.Load(),
		})
	}
	return out
}

// Stage reads one (kind, id) aggregation cell: executions and total
// nanoseconds.
func (t *Tracer) Stage(kind StageKind, id int) (count uint64, ns int64) {
	a := t.aggSlot(kind, int32(id))
	return a.count.Load(), a.ns.Load()
}

// KindTotal sums a kind's aggregation across all IDs.
func (t *Tracer) KindTotal(kind StageKind) (count uint64, ns int64) {
	base := int(kind) * t.maxID
	for i := 0; i < t.maxID; i++ {
		count += t.agg[base+i].count.Load()
		ns += t.agg[base+i].ns.Load()
	}
	return count, ns
}

// Reset clears the ring cursor and the aggregation (not concurrency-safe
// with in-flight Records; quiesce writers first).
func (t *Tracer) Reset() {
	t.pos.Store(0)
	for i := range t.agg {
		t.agg[i].count.Store(0)
		t.agg[i].ns.Store(0)
	}
	for i := range t.ring {
		t.ring[i].meta.Store(0)
		t.ring[i].start.Store(0)
		t.ring[i].dur.Store(0)
	}
}
