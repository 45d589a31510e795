package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtmobile/internal/bench"
)

func shortConfig(t *testing.T, name string) config {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	outDir = t.TempDir()
	return config{w: w, seed: 2020}.short()
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"zero children", []span{{ID: 1, StartNs: 5, EndNs: 25}}, []int64{20}},
		{"nested", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
			{ID: 3, Parent: 2, StartNs: 15, EndNs: 25},
		}, []int64{70, 20, 10}},
		{"overlapping children count once, and are clipped to the parent", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 50},
			{ID: 3, Parent: 1, StartNs: 30, EndNs: 70},
			{ID: 4, Parent: 1, StartNs: 90, EndNs: 120},
		}, []int64{30, 40, 40, 30}},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
	}
	got := layerSelfNs([]span{
		{ID: 1, Layer: "nn", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "tensor", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Layer: "tensor", StartNs: 50, EndNs: 60},
	})
	if got["nn"] != 60 || got["tensor"] != 40 {
		t.Errorf("layer self times %v, want nn=60 tensor=40", got)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin(0, "nn", "Step"); id != 0 || off.end(id) != 0 || off.all() != nil {
		t.Error("a nil recorder must record nothing")
	}
	rec := newRecorder()
	root := rec.begin(0, "bench", "frame")
	kid := rec.begin(root, "tensor", "MatVecAdd")
	time.Sleep(time.Millisecond)
	if d := rec.end(kid); d < int64(time.Millisecond) {
		t.Errorf("child span lasted %d ns, slept 1 ms inside it", d)
	}
	rec.end(root)
	spans := rec.all()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].name() != "tensor.MatVecAdd" {
		t.Fatalf("spans %+v", spans)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     span
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args.Parent != root {
		t.Errorf("trace events %+v", doc.TraceEvents)
	}
}

// Every workload, untraced: all outputs match the oracle, every
// end-to-end metric is reported, and no span is recorded.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		cfg := shortConfig(t, w.name)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.values["success_rate"] != 1 || res.exitCode() != 0 || res.attempted < 1 {
			t.Errorf("%s: success_rate %v, exit %d, attempted %d", w.name, res.values["success_rate"], res.exitCode(), res.attempted)
		}
		if res.spans != 0 {
			t.Errorf("%s: untraced run recorded %d spans", w.name, res.spans)
		}
		var out bytes.Buffer
		if err := report(&out, cfg, res); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if res.values[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, res.values[d.name])
			}
		}
	}
}

// The oracle bites: one wrong reference value makes the run incorrect
// and the exit code non-zero.
func TestOracleCatchesWrongOutput(t *testing.T) {
	for _, name := range []string{"stream_10x", "batch_offline", "serve_open"} {
		cfg := shortConfig(t, name)
		cfg.tamper = func(in *inputs) {
			// An utterance no workload's first output scores, so set-up
			// still succeeds and the timed phase has to catch it.
			first := map[int]bool{0: true, in.order[0]: true}
			for _, u := range in.batches[0].utt {
				first[u] = true
			}
			if len(first) == len(in.refs) {
				t.Fatal("every utterance is part of some first output")
			}
			for u := range in.refs {
				if !first[u] {
					in.refs[u][0][3] += 0.25
				}
			}
		}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.values["success_rate"] >= 1 || res.failed == 0 || res.exitCode() == 0 {
			t.Errorf("%s: success_rate %v, failed %d, exit %d after a reference value was flipped",
				name, res.values["success_rate"], res.failed, res.exitCode())
		}
	}
}

// A traced run emits every per-layer metric and a loadable trace file.
func TestTracedRunShort(t *testing.T) {
	cfg := shortConfig(t, "serve_open")
	cfg.trace = true
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("correct=%v, %d metrics, want %d", line.Correct, len(line.Metrics), len(perLayer))
	}
	raw, err := os.ReadFile(res.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != res.spans || res.spans == 0 {
		t.Errorf("trace file: err %v, %d events, %d spans", err, len(doc.TraceEvents), res.spans)
	}
}

func TestArrivalPlan(t *testing.T) {
	a, b, c := arrivalPlan(7, 12, 50, 4), arrivalPlan(7, 12, 50, 4), arrivalPlan(8, 12, 50, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same plan")
	}
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want rate x seconds = 200", len(a))
	}
	for i, x := range a {
		if x.AtNs < 0 || x.AtNs >= 4e9 || (i > 0 && x.AtNs < a[i-1].AtNs) || x.Utt < 0 || x.Utt >= 12 {
			t.Fatalf("arrival %d = %+v is outside the phase, out of order or names no utterance", i, x)
		}
	}
}

// A request the generator could not send on time is charged the wait:
// latency runs from the scheduled send.
func TestLateSendIsCharged(t *testing.T) {
	const service = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("[]"))
	}))
	defer ts.Close()
	stack := &serveStack{ts: ts, client: ts.Client()}
	in := &inputs{bodies: [][]byte{[]byte("[]")}, refs: [][][]float32{make([][]float32, serveFrames)}}
	plan := []bench.Arrival{{AtNs: 0}, {AtNs: 1e6}}
	p := runOpen(stack, in, plan, 1, nil) // one sender: the second request waits for the first
	late, lat := time.Duration(p.lateNs[1]), time.Duration(p.latNs[1])
	if late < service-5*time.Millisecond {
		t.Errorf("second request was sent %v late, want about %v", late, service)
	}
	if lat < late+service {
		t.Errorf("second request's latency %v does not include its %v lateness plus %v of service", lat, late, service)
	}
	if p.failed() != 2 {
		t.Errorf("%d failed, want both: the fake server's output is not the oracle's", p.failed())
	}
}

// BENCHMARK.json at the repository root and the tables in this package
// name the same workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, this package %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, this package %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, perLayer)
}
