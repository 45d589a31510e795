package bench

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
	"rtmobile/internal/serve"
	"rtmobile/internal/speech"
)

func TestLoadgenScheduleDeterministic(t *testing.T) {
	a := LoadgenSchedule(42, 96, 200, 2*time.Second)
	b := LoadgenSchedule(42, 96, 200, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans — the workload is not reproducible")
	}
	c := LoadgenSchedule(43, 96, 200, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestLoadgenScheduleShape(t *testing.T) {
	const qps, dur = 200.0, 2 * time.Second
	plan := LoadgenSchedule(7, 96, qps, dur)
	// Poisson with mean 400: ±15% is ~3 standard deviations.
	if n := len(plan); n < 340 || n > 460 {
		t.Fatalf("plan has %d arrivals for %v at %.0f qps, want ~400", n, dur, qps)
	}
	prev := int64(-1)
	for i, a := range plan {
		if a.AtNs < prev {
			t.Fatalf("arrival %d at %dns before predecessor %dns — not time-ordered", i, a.AtNs, prev)
		}
		prev = a.AtNs
		if a.AtNs < 0 || a.AtNs >= dur.Nanoseconds() {
			t.Fatalf("arrival %d offset %dns outside [0,%d)", i, a.AtNs, dur.Nanoseconds())
		}
		if a.Utt < 0 || a.Utt >= 96 {
			t.Fatalf("arrival %d utterance %d out of range", i, a.Utt)
		}
		if a.Trace.IsZero() || a.Span.IsZero() {
			t.Fatalf("arrival %d has zero trace/span id", i)
		}
	}
}

func TestFitFrames(t *testing.T) {
	frames := [][]float32{{1, 2, 3}, {4, 5, 6}}
	same := FitFrames(frames, 3)
	if &same[0][0] != &frames[0][0] {
		t.Error("matching width must pass rows through without copying")
	}
	narrow := FitFrames(frames, 2)
	if len(narrow[0]) != 2 || narrow[0][0] != 1 || narrow[0][1] != 2 {
		t.Errorf("truncate to 2 = %v", narrow[0])
	}
	wide := FitFrames(frames, 5)
	want := []float32{1, 2, 3, 1, 2}
	if !reflect.DeepEqual(wide[0], want) {
		t.Errorf("tile to 5 = %v, want %v", wide[0], want)
	}
}

func TestLoadgenBodies(t *testing.T) {
	utts := []speech.Utterance{{
		Frames: [][]float32{{1, 2}, {3, 4}, {5, 6}},
	}}
	bodies, err := LoadgenBodies(utts, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]float32
	if err := json.Unmarshal(bodies[0], &frames); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("maxFrames 2 left %d frames", len(frames))
	}
	if !reflect.DeepEqual(frames[0], []float32{1, 2, 1, 2}) {
		t.Errorf("fitted frame = %v", frames[0])
	}
}

// TestRunLoadLevelEndToEnd drives a small open-loop plan through a real
// in-process serve stack and cross-checks the client's view against the
// server's /slo accounting.
func TestRunLoadLevelEndToEnd(t *testing.T) {
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
	reg, err := registry.New(registry.Config{
		Loader: func(string) (registry.Instance, error) {
			return registry.Instance{Engine: eng}, nil
		},
		Sched: sched.Config{MaxBatch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	if err := reg.Register("default", "mem://bench"); err != nil {
		t.Fatal(err)
	}
	slo, err := obs.NewSLO(obs.SLOConfig{LatencyNs: int64(10 * time.Second), Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Registry: reg, SLO: slo, Tail: obs.NewTraceTail(8, 8)})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	utts := []speech.Utterance{
		{Frames: [][]float32{{1, 2, 3}, {4, 5, 6}}},
		{Frames: [][]float32{{7, 8, 9}}},
	}
	bodies, err := LoadgenBodies(utts, eng.InputDim(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const dur = 250 * time.Millisecond
	plan := LoadgenSchedule(11, len(utts), 120, dur)
	if len(plan) < 3 {
		t.Fatalf("plan too small: %d arrivals", len(plan))
	}
	client := NewLoadgenClient()
	row := RunLoadLevel(client, ts.URL, plan, bodies, int64(10*time.Second), dur)
	if row.Requests != len(plan) {
		t.Errorf("row counted %d requests, plan had %d", row.Requests, len(plan))
	}
	if row.Completed != len(plan) || row.Failed != 0 || row.Rejected != 0 {
		t.Fatalf("completed/rejected/failed = %d/%d/%d, want all %d completed",
			row.Completed, row.Rejected, row.Failed, len(plan))
	}
	if row.Attainment != 1 {
		t.Errorf("attainment %v with a 10s objective, want 1", row.Attainment)
	}
	if row.P50Ms <= 0 || row.P99Ms < row.P50Ms {
		t.Errorf("percentiles p50=%v p99=%v", row.P50Ms, row.P99Ms)
	}
	if row.Saturated {
		t.Error("level marked saturated though every request completed in time")
	}

	rep, err := fetchSLOReport(client, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.TotalRequests) != row.Completed {
		t.Errorf("/slo saw %d requests, client completed %d", rep.TotalRequests, row.Completed)
	}
	if rep.Attainment != 1 {
		t.Errorf("server attainment %v, want 1", rep.Attainment)
	}
}
