package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rtmobile/internal/tensor"
)

// kernelsLine is what every text surface must print: the process's kernel
// summary, which on a build or host without vector kernels (-tags=purego)
// reads "portable" in every family.
func kernelsLine(t *testing.T) string {
	t.Helper()
	k := tensor.KernelSet().String()
	if tensor.CPUFeatures() == (tensor.Features{}) && strings.Contains(k, "avx") {
		t.Fatalf("no CPU features in use but KernelSet() = %s", k)
	}
	return "kernels: " + k + "\n"
}

// TestRenderLayerStatsNamesKernels: the table run -stats prints opens with
// the kernel summary.
func TestRenderLayerStatsNamesKernels(t *testing.T) {
	if out, want := RenderLayerStats(testEngine(t)), kernelsLine(t); !strings.HasPrefix(out, want) {
		t.Fatalf("stats table does not open with %q:\n%s", want, out)
	}
}

// TestStatzAndHealthzNameKernels: /statz carries the same line in every
// model's table, /healthz the same summary as a JSON object.
func TestStatzAndHealthzNameKernels(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if want := kernelsLine(t); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/statz missing %q:\n%s", want, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var doc struct{ Kernels tensor.Kernels }
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if doc.Kernels != tensor.KernelSet() {
		t.Errorf("/healthz kernels = %+v, want %+v", doc.Kernels, tensor.KernelSet())
	}
}

// TestRenderLayerStatsEpilogueSplit: once a traced stream has stepped, the
// stats table reports the epilogue kernel spans and the matmul/epilogue
// split line the fusion work exists to expose.
func TestRenderLayerStatsEpilogueSplit(t *testing.T) {
	eng := testEngine(t)
	eng.EnableTracing()
	s := eng.NewStream()
	dst := make([]float32, eng.OutputDim())
	frame := make([]float32, eng.InputDim())
	for i := 0; i < 4; i++ {
		s.StepInto(dst, frame)
	}
	out := RenderLayerStats(eng)
	if !strings.Contains(out, "kernel spans epilogue") {
		t.Fatalf("stats missing epilogue span line:\n%s", out)
	}
	if !strings.Contains(out, "step split: matmul_us=") {
		t.Fatalf("stats missing matmul/epilogue split line:\n%s", out)
	}

	// An untraced engine renders neither (no spans, no split).
	cold := testEngine(t)
	out = RenderLayerStats(cold)
	if strings.Contains(out, "step split:") || strings.Contains(out, "epilogue") {
		t.Fatalf("untraced stats mention the epilogue split:\n%s", out)
	}
}
