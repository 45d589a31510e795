// Package obs is the runtime observability layer of the reproduction: the
// sharded atomic counters, gauges, and fixed-bucket latency histograms the
// inference stack updates on its hot paths, plus the span tracer that
// attributes a step's nanoseconds to layers and packed matrix kernels.
//
// The package is a leaf — it imports only the standard library — so every
// execution layer (internal/parallel, internal/nn, internal/compiler,
// internal/rtmobile) can report into it without dependency cycles.
//
// Design rules, in priority order:
//
//  1. Zero allocations on every write path. Counters, gauges, histograms
//     and the stage totals are fixed-size structures updated with atomics;
//     the AllocsPerRun gates in internal/rtmobile run with metrics enabled.
//  2. Nil-check fast paths. Collection off means M() == nil and a nil
//     tracer pointer — one predictable branch per instrumentation site, no
//     clock reads, no atomic traffic.
//  3. Exact aggregates. Counter totals, histogram counts and sums, and
//     per-stage (count, ns) totals are exact under any concurrency.
//
// Collection defaults on (the steady-state cost is a few atomic adds per
// inference step) and is disabled by setting RTMOBILE_METRICS to 0, false,
// or off — or at runtime via SetEnabled. Stage tracing is separate: it
// costs two clock reads per stage, so it is off until a *Tracer is
// installed (Engine.EnableTracing in internal/rtmobile).
package obs

import (
	"os"
	"strings"
	"sync/atomic"
)

// EnvMetrics is the environment variable gating metrics collection.
// Unset or any value other than "0", "false", "off" (case-insensitive)
// means enabled.
const EnvMetrics = "RTMOBILE_METRICS"

// Metrics is the process-wide instrument set. Every field is updated
// in place with atomics; the struct is never copied after creation.
type Metrics struct {
	// Single-stream serving.
	StepsTotal  Counter // Stream steps (one frame each)
	InferTotal  Counter // whole utterances through Engine.Infer
	FramesTotal Counter // posterior frames produced (all paths)

	// Batched serving.
	BatchStepsTotal Counter // lockstep panel steps
	BatchLanesTotal Counter // live lane-steps (panel steps × active lanes)
	InferBatchTotal Counter // Engine.InferBatch calls (one per batch, whatever its size)

	// Work accounting.
	MACsTotal Counter // plan-priced multiply-accumulates executed
	// BytesStreamed counts weight bytes streamed by the packed executors
	// per execution (static per program: 4 bytes per float32 value, 1 per
	// int8, 2 per int16; a batched execution streams the weights once).
	BytesStreamed Counter

	// Engine batch-arena free list.
	ArenaHits   Counter
	ArenaMisses Counter

	// Continuous-batching serve scheduler (internal/sched).
	SchedAdmitted   Counter // requests accepted into the pending queue
	SchedRejected   Counter // requests bounced by admission control (429 path)
	SchedDispatch   Counter // panels opened
	SchedJoins      Counter // lane assignments (panel openings + mid-flight joins)
	SchedSteps      Counter // lockstep panel steps driven by the scheduler
	SchedGrows      Counter // live panels widened 1 → MaxBatch for a waiter
	SchedShrinks    Counter // live panels narrowed MaxBatch → 1 for a lone lane
	SchedLanesMoved Counter // utterances carried across a grow or shrink
	SchedQueue      Gauge   // requests waiting for a lane right now
	StreamSessions  Counter // /infer/stream sessions opened
	StreamLanes     Gauge   // streaming sessions currently holding a lane

	// Worker pool.
	PoolTasksTotal Counter   // pool.For tasks started
	PoolQueueDepth Gauge     // submitted-but-unfinished pool tasks
	PoolBusyNs     PerWorker // per-worker busy nanoseconds inside For

	// Latency distributions (nanoseconds). InferLatency takes one sample
	// per Engine.Infer utterance and one per Engine.InferBatch call (the
	// whole batch), matching InferTotal + InferBatchTotal.
	StepLatency      *Histogram // one Stream step
	BatchStepLatency *Histogram // one lockstep panel step
	InferLatency     *Histogram
	KernelLatency    *Histogram // one packed-program execution

	// Scheduler distributions: queue wait (enqueue → lane assignment) and
	// end-to-end request latency (enqueue → completion) in nanoseconds,
	// plus live-lane occupancy per panel step (a count histogram — how full
	// the panels the scheduler dispatches actually run).
	SchedQueueWait *Histogram
	SchedLatency   *Histogram
	LaneOccupancy  *Histogram

	// Per-model instrument scopes for multi-model serving (see Scope).
	scopeSet scopeSet
}

// DefaultOccupancyBounds buckets live-lane counts per panel step at the
// powers of two up to the widest panel a serving tier may lease
// (rtmobile.MaxBatchWidth, 32).
func DefaultOccupancyBounds() []int64 {
	return []int64{1, 2, 4, 8, 16, 32}
}

// NewMetrics builds a fresh instrument set with the default latency
// buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		StepLatency:      NewHistogram(DefaultLatencyBounds()),
		BatchStepLatency: NewHistogram(DefaultLatencyBounds()),
		InferLatency:     NewHistogram(DefaultLatencyBounds()),
		KernelLatency:    NewHistogram(DefaultLatencyBounds()),
		SchedQueueWait:   NewHistogram(DefaultLatencyBounds()),
		SchedLatency:     NewHistogram(DefaultLatencyBounds()),
		LaneOccupancy:    NewHistogram(DefaultOccupancyBounds()),
	}
}

// current holds the active instrument set; nil means collection is off.
var current atomic.Pointer[Metrics]

func init() {
	if envEnabled() {
		current.Store(NewMetrics())
	}
}

// envEnabled resolves the RTMOBILE_METRICS default.
func envEnabled() bool {
	switch strings.ToLower(os.Getenv(EnvMetrics)) {
	case "0", "false", "off":
		return false
	default:
		return true
	}
}

// M returns the active instrument set, or nil when collection is off. The
// nil check at the call site is the instrumentation fast path:
//
//	if m := obs.M(); m != nil {
//		m.StepsTotal.IncAt(shard)
//	}
func M() *Metrics { return current.Load() }

// Enabled reports whether collection is on.
func Enabled() bool { return current.Load() != nil }

// SetEnabled switches collection on or off at runtime. Turning collection
// on installs a fresh zeroed instrument set; turning it off detaches the
// current one (in-flight writers holding the old pointer finish into the
// detached set, which is then unreachable). Returns the previous state.
func SetEnabled(on bool) bool {
	was := current.Load() != nil
	if on {
		if !was {
			current.Store(NewMetrics())
		}
	} else {
		current.Store(nil)
	}
	return was
}
