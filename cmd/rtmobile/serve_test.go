package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

// serveEngine builds a small in-process engine for handler tests (no
// bundle file needed; newServeMux is what cmdServe wires after loading).
func serveEngine(t *testing.T) *rtmobile.Engine {
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

// newEngineRegistry wraps an already-built engine in a single-model
// registry (model "default"), so handler tests can exercise the serving
// mux without a bundle file. The registry is closed when the test ends.
func newEngineRegistry(t *testing.T, eng *rtmobile.Engine, cfg sched.Config) *registry.Registry {
	t.Helper()
	reg, err := registry.New(registry.Config{
		Loader: func(path string) (registry.Instance, error) {
			return registry.Instance{Engine: eng}, nil
		},
		Sched: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("default", "mem://engine"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close(context.Background()) })
	return reg
}

// regScheduler exposes the current default-model scheduler (the registry
// keeps it alive while the version stays current; these tests never swap).
func regScheduler(t *testing.T, reg *registry.Registry) *sched.Scheduler {
	t.Helper()
	lease, err := reg.Acquire(reg.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	return lease.Scheduler()
}

// serveMux pairs an engine with a short-window single-model registry and
// wires the mux, closing the registry when the test ends.
func serveMux(t *testing.T, eng *rtmobile.Engine) *http.ServeMux {
	t.Helper()
	reg := newEngineRegistry(t, eng, sched.Config{MaxBatch: 4})
	return newServeMux(reg)
}

// serveFrames builds a deterministic T×dim utterance.
func serveFrames(tSteps, dim int) [][]float32 {
	frames := make([][]float32, tSteps)
	for t := range frames {
		frames[t] = make([]float32, dim)
		for i := range frames[t] {
			frames[t][i] = float32(t-i) * 0.03
		}
	}
	return frames
}

func TestServeHealthz(t *testing.T) {
	mux := serveMux(t, serveEngine(t))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if doc["status"] != "ok" {
		t.Fatalf("/healthz status field %v", doc["status"])
	}
	if doc["model"] == "" || doc["format"] == "" {
		t.Fatalf("/healthz missing deployment identity: %v", doc)
	}
}

func TestServeInferAndMetrics(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	eng := serveEngine(t)
	mux := serveMux(t, eng)

	body, _ := json.Marshal(serveFrames(5, eng.InputDim()))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d: %s", rec.Code, rec.Body)
	}
	var post [][]float32
	if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
		t.Fatalf("/infer not JSON: %v", err)
	}
	if len(post) != 5 || len(post[0]) != eng.OutputDim() {
		t.Fatalf("/infer shape %dx%d, want 5x%d", len(post), len(post[0]), eng.OutputDim())
	}
	sum := 0.0
	for _, v := range post[0] {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("/infer row not a posterior (sums to %v)", sum)
	}

	// The scored frames show up on /metrics in Prometheus text format.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE rtmobile_steps_total counter",
		"rtmobile_frames_total",
		"rtmobile_macs_total",
		"# TYPE rtmobile_step_latency_ns histogram",
		"rtmobile_step_latency_ns_bucket{le=\"+Inf\"}",
		"rtmobile_infer_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// And on /metrics.json as a flat document.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if _, ok := doc["rtmobile_steps_total"]; !ok {
		t.Fatalf("/metrics.json missing rtmobile_steps_total: %v", doc)
	}
}

func TestServeMetricsDisabled(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	mux := serveMux(t, serveEngine(t))
	for _, path := range []string{"/metrics", "/metrics.json"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s with collection off: status %d, want 503", path, rec.Code)
		}
	}
}

func TestServeInferValidation(t *testing.T) {
	eng := serveEngine(t)
	mux := serveMux(t, eng)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/infer", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer status %d, want 405", rec.Code)
	}

	for name, body := range map[string]string{
		"not json":    "{nope",
		"empty":       "[]",
		"wrong width": "[[1,2,3]]",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /infer %s: status %d, want 400", name, rec.Code)
		}
	}
}

func TestServeStatzTracesLayers(t *testing.T) {
	eng := serveEngine(t)
	eng.EnableTracing()
	mux := serveMux(t, eng)

	body, _ := json.Marshal(serveFrames(4, eng.InputDim()))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statz status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{"gru0", "out", "MACs/step", "plan check"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/statz missing %q in:\n%s", want, text)
		}
	}
}

// TestServeStatzQuantized: a quantized deployment surfaces the weight
// stream accounting and the kernel span totals on /statz.
func TestServeStatzQuantized(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 16, NumLayers: 1, OutputDim: 6, Seed: 3,
	})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
	})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{
		Target: device.MobileCPU(), Quant: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableTracing()
	mux := serveMux(t, eng)

	body, _ := json.Marshal(serveFrames(4, eng.InputDim()))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statz status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"quantization: int8 weights", "bytes_streamed_total:", "kernel spans kernel ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/statz missing %q in:\n%s", want, text)
		}
	}
	// Quantized programs run the float32 kernels: no per-width span kind.
	if strings.Contains(text, "kernel_q") {
		t.Fatalf("/statz names a per-width kernel kind:\n%s", text)
	}
}

func TestServePprofRegistered(t *testing.T) {
	mux := serveMux(t, serveEngine(t))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles list")
	}
}

// TestCmdWorkersValidation: the CLI front door rejects bad worker counts
// loudly instead of clamping.
func TestCmdWorkersValidation(t *testing.T) {
	if err := applyWorkers(-3); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("negative -workers error = %v", err)
	}
	t.Setenv("RTMOBILE_WORKERS", "garbage")
	if err := applyWorkers(0); err == nil || !strings.Contains(err.Error(), "RTMOBILE_WORKERS") {
		t.Fatalf("garbage env error = %v", err)
	}
	t.Setenv("RTMOBILE_WORKERS", "2")
	if err := applyWorkers(0); err != nil {
		t.Fatalf("valid env rejected: %v", err)
	}
}
