package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

// testEngine builds a small in-process engine (no bundle file needed).
func testEngine(t *testing.T) *rtmobile.Engine {
	t.Helper()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 16, NumLayers: 1, OutputDim: 6, Seed: 3,
	})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
	})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testServer wires an engine into a single-model registry and a Server.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	eng := testEngine(t)
	reg, err := registry.New(registry.Config{
		Loader: func(path string) (registry.Instance, error) {
			return registry.Instance{Engine: eng}, nil
		},
		Sched: sched.Config{MaxBatch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("default", "mem://engine"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close(context.Background()) })
	cfg.Registry = reg
	return New(cfg)
}

func inferBody(t testing.TB, tSteps, dim int) *bytes.Buffer {
	t.Helper()
	frames := make([][]float32, tSteps)
	for ts := range frames {
		frames[ts] = make([]float32, dim)
		for i := range frames[ts] {
			frames[ts][i] = float32(ts-i) * 0.03
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(frames); err != nil {
		t.Fatal(err)
	}
	return &buf
}

const inboundTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestInferEchoesChildTraceparent(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 3, 8))
	req.Header.Set(TraceparentHeader, inboundTP)
	s.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d: %s", rec.Code, rec.Body.String())
	}
	echo := rec.Header().Get(TraceparentHeader)
	tid, span, flags, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("egress traceparent unparseable: %q", echo)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("egress trace id = %s, want the inbound one preserved", tid.String())
	}
	if span.String() == "00f067aa0ba902b7" {
		t.Error("egress span id must be our own, not the inbound parent")
	}
	if flags != 0x01 {
		t.Errorf("egress flags = %#x, want inbound 0x01 preserved", flags)
	}
}

func TestInferMintsRootTrace(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 2, 8)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d", rec.Code)
	}
	if _, _, _, ok := obs.ParseTraceparent(rec.Header().Get(TraceparentHeader)); !ok {
		t.Fatalf("no valid egress traceparent on untraced ingress: %q",
			rec.Header().Get(TraceparentHeader))
	}
}

func TestInferMalformedTraceparentIgnored(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 2, 8))
	req.Header.Set(TraceparentHeader, "00-bogus")
	s.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	tid, _, _, ok := obs.ParseTraceparent(rec.Header().Get(TraceparentHeader))
	if !ok || tid.IsZero() {
		t.Fatal("malformed ingress must still mint a fresh valid trace")
	}
}

func TestDebugTracesRetainsRequest(t *testing.T) {
	s := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 4, 8)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/infer status %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var docs []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(docs) != 3 {
		t.Fatalf("retained %d traces, want 3", len(docs))
	}
	kinds := map[string]bool{}
	for _, sp := range docs[0]["spans"].([]any) {
		kinds[sp.(map[string]any)["kind"].(string)] = true
	}
	for _, want := range []string{"parse", "queue_wait", "batch_form", "generation", "serialize"} {
		if !kinds[want] {
			t.Errorf("trace missing %s span (got %v)", want, kinds)
		}
	}
	if docs[0]["steps"].(float64) != 4 {
		t.Errorf("steps = %v, want 4", docs[0]["steps"])
	}

	// Chrome trace-event export.
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?format=chrome", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("chrome export status %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export invalid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

func TestSLOEndpointCountsRequests(t *testing.T) {
	slo, err := obs.NewSLO(obs.SLOConfig{LatencyNs: int64(10 * time.Second), Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{SLO: slo})
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 2, 8)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/infer status %d", rec.Code)
		}
	}
	// Client errors must not enter the SLO accounting.
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader("[]")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty frames status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/slo status %d", rec.Code)
	}
	var report obs.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.TotalRequests != 5 || report.TotalGood != 5 {
		t.Errorf("slo totals = %d/%d, want 5/5 (client 400s excluded)",
			report.TotalGood, report.TotalRequests)
	}
	if !report.Met || report.Target != 0.9 {
		t.Errorf("report = met=%v target=%v", report.Met, report.Target)
	}
	if len(report.Windows) != 2 {
		t.Errorf("windows = %d, want default 5m/1h pair", len(report.Windows))
	}
}

func TestMetricsIncludesSLOFamilies(t *testing.T) {
	was := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 2, 8)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, fam := range []string{
		"rtmobile_slo_latency_threshold_ns",
		"rtmobile_slo_target",
		"rtmobile_slo_requests_total 1",
		`rtmobile_slo_burn_rate{window="5m"}`,
		`rtmobile_slo_burn_rate{window="1h"}`,
		"rtmobile_sched_panel_grows_total",
		"rtmobile_sched_panel_shrinks_total",
		"rtmobile_sched_lanes_moved_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
}

func TestStatzReportsTailStats(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 2, 8)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	out := rec.Body.String()
	if !strings.Contains(out, "traces: offered=1 kept=1") {
		t.Errorf("/statz missing tail stats:\n%s", out)
	}
	if !strings.Contains(out, "sched: max_batch=4 queue=0/32 max_streams=4") || strings.Contains(out, "window=") {
		t.Errorf("/statz scheduler line wrong (it has no window to report):\n%s", out)
	}
	if obs.Enabled() && !strings.Contains(out, "sched panels: opened=") {
		t.Errorf("/statz missing the panel regroup counters:\n%s", out)
	}
}

// TestOversizedBodiesRefused: a body past its route's bound is answered 413
// as a client error — no SLO sample, no retained trace, the pooled trace
// returned — and the server keeps scoring. Each oversized body is a
// well-formed request behind leading whitespace, which an unbounded decoder
// reads through and answers 200.
func TestOversizedBodiesRefused(t *testing.T) {
	s := testServer(t, Config{})
	body := inferBody(t, 3, 8).String()
	// The pool is LIFO: a request that returns its trace leaves this one on
	// top again; one that leaks it makes the next Get allocate another.
	pooled := s.pool.Get()
	s.pool.Put(pooled)
	for _, tc := range []struct {
		route, body string
		limit       int
	}{
		{"/infer", body, maxInferBody},
		{"/infer/default", body, maxInferBody},
		{"/admin/models/default/swap", `{"path":""}`, maxSwapBody},
	} {
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.route,
			strings.NewReader(strings.Repeat(" ", tc.limit)+tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", tc.route, tc.limit+len(tc.body), rec.Code)
		}
	}
	// A stream whose first frame will not decode is refused the same way,
	// before the response is committed.
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer/stream", strings.NewReader("[1,")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("/infer/stream with a malformed first frame: status %d, want 400", rec.Code)
	}
	// So is a first frame of the wrong width, with /infer's message.
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer/stream", strings.NewReader("[1,2]")))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request: frame 0 has 2 features, model wants 8") {
		t.Fatalf("/infer/stream with a 2-wide first frame: status %d %q, want 400 naming the widths", rec.Code, rec.Body.String())
	}

	if _, total := s.slo.Totals(); total != 0 {
		t.Errorf("refused requests took %d SLO samples, want 0", total)
	}
	if offered, _ := s.tail.Stats(); offered != 0 {
		t.Errorf("refused requests offered %d traces to the tail sampler, want 0", offered)
	}
	if tr := s.pool.Get(); tr != pooled {
		t.Error("a refused request did not return its pooled trace")
	} else {
		s.pool.Put(tr)
	}

	var frames [][]float32
	if err := json.Unmarshal([]byte(body), &frames); err != nil {
		t.Fatal(err)
	}
	lease, err := s.reg.Acquire("default")
	if err != nil {
		t.Fatal(err)
	}
	want := lease.Engine().Infer(frames)
	lease.Release()
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer after the refusals: status %d: %s", rec.Code, rec.Body.String())
	}
	var got [][]float32
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d posterior rows, want %d", len(got), len(want))
	}
	for f := range want {
		for j := range want[f] {
			if got[f][j] != want[f][j] {
				t.Fatalf("frame %d phone %d: %v, want Infer's %v", f, j, got[f][j], want[f][j])
			}
		}
	}
}
