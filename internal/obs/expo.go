package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Exposition. Two wire formats over the same instrument set: Prometheus
// text format (the /metrics endpoint of `rtmobile serve`) and an
// expvar-style flat JSON document (the /metrics.json endpoint, and what
// tests assert against). Metric names are part of the public surface —
// they are documented in README.md and asserted by the serve tests.

// counterRow pairs a metric name with its counter.
type counterRow struct {
	name string
	c    *Counter
}

// histRow pairs a metric name with its histogram.
type histRow struct {
	name string
	h    *Histogram
}

// gaugeRow pairs a metric name with its gauge.
type gaugeRow struct {
	name string
	g    *Gauge
}

func (m *Metrics) counters() []counterRow {
	return []counterRow{
		{"rtmobile_steps_total", &m.StepsTotal},
		{"rtmobile_infer_total", &m.InferTotal},
		{"rtmobile_frames_total", &m.FramesTotal},
		{"rtmobile_batch_steps_total", &m.BatchStepsTotal},
		{"rtmobile_batch_lanes_total", &m.BatchLanesTotal},
		{"rtmobile_infer_batch_total", &m.InferBatchTotal},
		{"rtmobile_macs_total", &m.MACsTotal},
		{"rtmobile_bytes_streamed_total", &m.BytesStreamed},
		{"rtmobile_arena_hits_total", &m.ArenaHits},
		{"rtmobile_arena_misses_total", &m.ArenaMisses},
		{"rtmobile_pool_tasks_total", &m.PoolTasksTotal},
		{"rtmobile_sched_admitted_total", &m.SchedAdmitted},
		{"rtmobile_sched_rejected_total", &m.SchedRejected},
		{"rtmobile_sched_dispatch_total", &m.SchedDispatch},
		{"rtmobile_sched_lane_joins_total", &m.SchedJoins},
		{"rtmobile_sched_steps_total", &m.SchedSteps},
		{"rtmobile_sched_panel_grows_total", &m.SchedGrows},
		{"rtmobile_sched_panel_shrinks_total", &m.SchedShrinks},
		{"rtmobile_sched_lanes_moved_total", &m.SchedLanesMoved},
		{"rtmobile_stream_sessions_total", &m.StreamSessions},
	}
}

func (m *Metrics) gauges() []gaugeRow {
	return []gaugeRow{
		{"rtmobile_pool_queue_depth", &m.PoolQueueDepth},
		{"rtmobile_sched_queue_depth", &m.SchedQueue},
		{"rtmobile_stream_lanes", &m.StreamLanes},
	}
}

func (m *Metrics) histograms() []histRow {
	return []histRow{
		{"rtmobile_step_latency_ns", m.StepLatency},
		{"rtmobile_batch_step_latency_ns", m.BatchStepLatency},
		{"rtmobile_infer_latency_ns", m.InferLatency},
		{"rtmobile_kernel_latency_ns", m.KernelLatency},
		{"rtmobile_sched_queue_wait_ns", m.SchedQueueWait},
		{"rtmobile_sched_latency_ns", m.SchedLatency},
		{"rtmobile_sched_lane_occupancy", m.LaneOccupancy},
	}
}

// WritePrometheus writes the instrument set in Prometheus text exposition
// format (version 0.0.4): counters, the pool gauge, per-worker busy time as
// a labeled counter family, and cumulative-bucket histograms.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	for _, r := range m.counters() {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", r.name, r.name, r.c.Value()); err != nil {
			return err
		}
	}
	for _, r := range m.gauges() {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", r.name, r.name, r.g.Value()); err != nil {
			return err
		}
	}
	if busy := m.PoolBusyNs.Values(); len(busy) > 0 {
		if _, err := fmt.Fprint(w, "# TYPE rtmobile_pool_worker_busy_ns_total counter\n"); err != nil {
			return err
		}
		for i, v := range busy {
			if _, err := fmt.Fprintf(w, "rtmobile_pool_worker_busy_ns_total{worker=\"%d\"} %d\n", i, v); err != nil {
				return err
			}
		}
	}
	for _, r := range m.histograms() {
		s := r.h.Snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", r.name); err != nil {
			return err
		}
		var cum uint64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", r.name, b, cum); err != nil {
				return err
			}
		}
		cum += s.Counts[len(s.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			r.name, cum, r.name, s.Sum, r.name, s.Count); err != nil {
			return err
		}
	}
	return m.writePrometheusScopes(w)
}

// labelEscaper rewrites the three characters the Prometheus text format
// requires escaping inside label values: backslash, double quote, newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a string for use as a Prometheus label value
// (text format 0.0.4: backslash, double quote, and line feed must be
// escaped; everything else — including raw UTF-8 — passes through).
// Note Go's %q is NOT a substitute: it escapes non-ASCII bytes too,
// which corrupts UTF-8 model names on the wire.
func EscapeLabel(s string) string {
	// Fast path: nothing to escape (the common case for model names).
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

// writePrometheusScopes emits the per-model scope families with a model
// label.
func (m *Metrics) writePrometheusScopes(w io.Writer) error {
	scopes := m.ModelScopes()
	if len(scopes) == 0 {
		return nil
	}
	type scopeCounter struct {
		name string
		get  func(*Scope) uint64
	}
	counters := []scopeCounter{
		{"rtmobile_model_requests_total", func(s *Scope) uint64 { return s.RequestsTotal.Value() }},
		{"rtmobile_model_errors_total", func(s *Scope) uint64 { return s.ErrorsTotal.Value() }},
		{"rtmobile_model_swaps_total", func(s *Scope) uint64 { return s.SwapsTotal.Value() }},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", c.name); err != nil {
			return err
		}
		for _, s := range scopes {
			if _, err := fmt.Fprintf(w, "%s{model=\"%s\"} %d\n", c.name, EscapeLabel(s.Model), c.get(s)); err != nil {
				return err
			}
		}
	}
	type scopeGauge struct {
		name string
		get  func(*Scope) int64
	}
	gauges := []scopeGauge{
		{"rtmobile_model_version", func(s *Scope) int64 { return s.Version.Value() }},
		{"rtmobile_model_leases", func(s *Scope) int64 { return s.Leases.Value() }},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", g.name); err != nil {
			return err
		}
		for _, s := range scopes {
			if _, err := fmt.Fprintf(w, "%s{model=\"%s\"} %d\n", g.name, EscapeLabel(s.Model), g.get(s)); err != nil {
				return err
			}
		}
	}
	const hname = "rtmobile_model_latency_ns"
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", hname); err != nil {
		return err
	}
	for _, sc := range scopes {
		s := sc.Latency.Snapshot()
		model := EscapeLabel(sc.Model)
		var cum uint64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{model=\"%s\",le=\"%d\"} %d\n", hname, model, b, cum); err != nil {
				return err
			}
		}
		cum += s.Counts[len(s.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{model=\"%s\",le=\"+Inf\"} %d\n%s_sum{model=\"%s\"} %d\n%s_count{model=\"%s\"} %d\n",
			hname, model, cum, hname, model, s.Sum, hname, model, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// histJSON is a histogram's JSON exposition shape.
type histJSON struct {
	Count   uint64            `json:"count"`
	SumNs   int64             `json:"sum_ns"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// WriteJSON writes the instrument set as one flat expvar-style JSON object:
// counters and gauges as numbers, histograms as {count, sum_ns, buckets}
// sub-objects with non-cumulative per-bound counts.
func (m *Metrics) WriteJSON(w io.Writer) error {
	doc := make(map[string]any, 16)
	for _, r := range m.counters() {
		doc[r.name] = r.c.Value()
	}
	for _, r := range m.gauges() {
		doc[r.name] = r.g.Value()
	}
	if busy := m.PoolBusyNs.Values(); len(busy) > 0 {
		workers := make(map[string]uint64, len(busy))
		for i, v := range busy {
			workers[fmt.Sprintf("%d", i)] = v
		}
		doc["rtmobile_pool_worker_busy_ns_total"] = workers
	}
	for _, r := range m.histograms() {
		s := r.h.Snapshot()
		hj := histJSON{Count: s.Count, SumNs: s.Sum}
		if s.Count > 0 {
			hj.Buckets = make(map[string]uint64)
			for i, b := range s.Bounds {
				if s.Counts[i] > 0 {
					hj.Buckets[fmt.Sprintf("%d", b)] = s.Counts[i]
				}
			}
			if inf := s.Counts[len(s.Bounds)]; inf > 0 {
				hj.Buckets["+Inf"] = inf
			}
		}
		doc[r.name] = hj
	}
	for _, sc := range m.ModelScopes() {
		s := sc.Latency.Snapshot()
		hj := histJSON{Count: s.Count, SumNs: s.Sum}
		if s.Count > 0 {
			hj.Buckets = make(map[string]uint64)
			for i, b := range s.Bounds {
				if s.Counts[i] > 0 {
					hj.Buckets[fmt.Sprintf("%d", b)] = s.Counts[i]
				}
			}
			if inf := s.Counts[len(s.Bounds)]; inf > 0 {
				hj.Buckets["+Inf"] = inf
			}
		}
		doc["rtmobile_model:"+sc.Model] = map[string]any{
			"requests_total": sc.RequestsTotal.Value(),
			"errors_total":   sc.ErrorsTotal.Value(),
			"swaps_total":    sc.SwapsTotal.Value(),
			"version":        sc.Version.Value(),
			"leases":         sc.Leases.Value(),
			"latency_ns":     hj,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
