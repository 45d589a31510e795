package obs

import (
	"sync/atomic"
	"time"
)

// Stage tracing. A Tracer aggregates (count, total ns) per (kind, id) slot
// for the stages below a step — one layer, one fused gate epilogue, one
// packed matrix kernel — so a step's nanoseconds can be attributed without
// a profiler. Whole steps and utterances are not traced here: the latency
// histograms in Metrics already hold their count and sum. Recording is
// allocation-free and lock-free, so a tracer can stay attached to a
// production engine: the hot loops pay one nil check when tracing is off
// and two clock reads plus two atomic adds when it is on.

// StageKind labels what a stage total measures.
type StageKind uint8

const (
	// StageLayer is one layer's stepper inside a step; ID is the layer index.
	StageLayer StageKind = iota
	// StageKernel is one packed-program execution; ID is the program's
	// tracer ID (the matrix index for engine-owned programs). Both kernel
	// tiers and every storage width record it: an engine runs one tier.
	StageKernel
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
	case StageLayer:
		return "layer"
	case StageKernel:
		return "kernel"
	case StageEpilogue:
		return "epilogue"
	default:
		return "unknown"
	}
}

// stageAgg is one (kind, id) aggregation cell.
type stageAgg struct {
	count atomic.Uint64
	ns    atomic.Int64
}

// Tracer is a table of per-(kind, id) stage totals. Construct with
// NewTracer; all methods are safe for concurrent use. A nil *Tracer must
// not be recorded into — call sites keep the nil check inline, which is the
// "tracing off" fast path.
type Tracer struct {
	agg   []stageAgg // NumStageKinds × maxID
	maxID int
}

// NewTracer builds a tracer with aggregation slots for stage IDs in
// [0, maxIDs). Out-of-range IDs fold onto the nearest end slot.
func NewTracer(maxIDs int) *Tracer {
	if maxIDs < 1 {
		maxIDs = 1
	}
	return &Tracer{agg: make([]stageAgg, int(NumStageKinds)*maxIDs), maxID: maxIDs}
}

// aggSlot maps (kind, id) onto an aggregation cell, clamping out-of-range
// IDs onto the first or last slot.
func (t *Tracer) aggSlot(kind StageKind, id int32) *stageAgg {
	i := min(max(int(id), 0), t.maxID-1)
	return &t.agg[int(kind)*t.maxID+i]
}

// Record adds one execution of dur nanoseconds to the (kind, id) total.
// Allocation-free and lock-free; any number of goroutines may record
// concurrently.
func (t *Tracer) Record(kind StageKind, id int32, dur int64) {
	a := t.aggSlot(kind, id)
	a.count.Add(1)
	a.ns.Add(dur)
}

// RecordSince is Record with dur measured from t0 by the monotonic clock.
func (t *Tracer) RecordSince(kind StageKind, id int32, t0 time.Time) {
	t.Record(kind, id, time.Since(t0).Nanoseconds())
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
