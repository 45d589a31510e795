package rtmobile

import (
	"strings"

	"rtmobile/internal/compiler"
	"rtmobile/internal/obs"
)

// Engine-level observability. The global metrics collector (internal/obs)
// meters every inference entry point automatically; stage tracing is
// opt-in per engine because its per-layer and per-matrix totals are
// per-deployment state. Both
// are allocation-free on the hot path: StepInto and InferBatchInto stay
// at zero heap allocations per call with metrics and tracing enabled.

// stepPricedMACs sums the plan's per-matrix MAC prices for one timestep
// (every matrix is applied once per timestep), the unit streams use to
// meter obs MACsTotal: the nonzero weights the step's programs multiply.
func stepPricedMACs(plan *compiler.Plan) uint64 {
	n := 0
	for i := range plan.Matrices {
		n += plan.Matrices[i].MACs()
	}
	return uint64(n)
}

// EnableTracing installs a per-stage tracer on the engine: streams and
// lockstep sessions opened afterwards total their per-layer step time
// (obs.StageLayer, with the GRU epilogue nested as obs.StageEpilogue), and
// the engine's programs total one kernel execution (obs.StageKernel) each,
// labeled with their matrix index in the plan — shared by every stream,
// already open or not. Whole steps and utterances are timed by the metrics
// histograms instead. Returns the tracer; read it with Stage/KindTotal or
// via Engine.LayerStats. Not safe to call concurrently with in-flight
// inference.
func (e *Engine) EnableTracing() *obs.Tracer {
	e.tracer = obs.NewTracer(max(len(e.shell.Layers), len(e.plan.Matrices)))
	for i, p := range e.progs {
		p.SetTracer(e.tracer, int32(i))
	}
	return e.tracer
}

// Tracer returns the engine's stage tracer, or nil when tracing is off.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// LayerStat is one layer's row in the per-layer latency table (the CLI's
// run -stats view): the plan's priced per-timestep MAC count next to the
// measured per-layer step timings from the engine tracer.
type LayerStat struct {
	Index int
	Name  string
	// MACs is the plan-priced multiply-accumulate count for one timestep
	// of this layer (the sum over the layer's compiled matrices), so the
	// per-matrix prices total exactly to the table's MAC column.
	MACs int
	// Spans and TotalNs are the tracer's StageLayer totals for this
	// layer; both are zero when tracing was never enabled.
	Spans   uint64
	TotalNs int64
}

// AvgNs is the mean measured nanoseconds per step (0 with no steps traced).
func (ls LayerStat) AvgNs() int64 {
	if ls.Spans == 0 {
		return 0
	}
	return ls.TotalNs / int64(ls.Spans)
}

// LayerStats returns one row per model layer: the plan's priced MACs per
// timestep and, when tracing is (or was) enabled, the measured per-layer
// step totals. Matrix prices are matched to layers by name prefix,
// so the rows' MAC column sums to the plan's per-timestep total
// (FrameMACs / TimestepsPerFrame) — the consistency contract run -stats
// relies on.
func (e *Engine) LayerStats() []LayerStat {
	stats := make([]LayerStat, len(e.shell.Layers))
	for i, l := range e.shell.Layers {
		name := ""
		if ps := l.Params(); len(ps) > 0 {
			name = ps[0].Name
			if dot := strings.IndexByte(name, '.'); dot >= 0 {
				name = name[:dot]
			}
		}
		stats[i] = LayerStat{Index: i, Name: name}
		for j := range e.plan.Matrices {
			m := &e.plan.Matrices[j]
			if matrixLayerPrefix(m.Name) == name {
				stats[i].MACs += m.MACs()
			}
		}
		if e.tracer != nil {
			count, ns := e.tracer.Stage(obs.StageLayer, i)
			stats[i].Spans, stats[i].TotalNs = count, ns
		}
	}
	return stats
}

// matrixLayerPrefix maps a compiled matrix name to its layer ("gru0.Wx"
// → "gru0").
func matrixLayerPrefix(name string) string {
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		return name[:dot]
	}
	return name
}
