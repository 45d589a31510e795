package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReqTraceSpans(t *testing.T) {
	var tr ReqTrace
	tr.Reset()
	tr.AddSpan(ReqSpanQueueWait, 3, 8, 100, 50)
	tr.AddSpan(ReqSpanGeneration, 3, 8, 150, 900)
	tr.AddKernel(150, 40)
	tr.AddKernel(150, 60)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Kind != ReqSpanQueueWait || spans[0].Lane != 3 || spans[0].Width != 8 || spans[0].Dur != 50 {
		t.Errorf("queue span = %+v", spans[0])
	}
	if spans[2].Kind != ReqSpanKernel || spans[2].Dur != 100 {
		t.Errorf("kernel span = %+v, want accumulated dur 100", spans[2])
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestReqTraceSpanCap(t *testing.T) {
	var tr ReqTrace
	tr.Reset()
	for i := 0; i < MaxReqSpans+5; i++ {
		tr.AddSpan(ReqSpanGeneration, -1, 0, int64(i), 1)
	}
	if len(tr.Spans()) != MaxReqSpans {
		t.Fatalf("spans = %d, want cap %d", len(tr.Spans()), MaxReqSpans)
	}
	if tr.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", tr.Dropped())
	}
	// Kernel accumulation past the cap drops (first use) but keeps
	// accumulating once a slot exists.
	tr.AddKernel(0, 10)
	if tr.Dropped() != 6 {
		t.Errorf("dropped after kernel overflow = %d, want 6", tr.Dropped())
	}
}

func TestReqTraceReset(t *testing.T) {
	var tr ReqTrace
	tr.Reset()
	tr.ID = NewTraceID(1, 2)
	tr.Err = true
	tr.Steps = 7
	tr.AddKernel(5, 5)
	tr.Reset()
	if tr.Err || tr.Steps != 0 || len(tr.Spans()) != 0 || !tr.ID.IsZero() {
		t.Fatalf("Reset left state: %+v", tr)
	}
	// kernelIdx must be re-armed so the next AddKernel creates a fresh span.
	tr.AddKernel(9, 3)
	if len(tr.Spans()) != 1 || tr.Spans()[0].Dur != 3 {
		t.Fatalf("post-reset kernel span = %+v", tr.Spans())
	}
}

func TestReqSpanKindStrings(t *testing.T) {
	want := map[ReqSpanKind]string{
		ReqSpanParse: "parse", ReqSpanQueueWait: "queue_wait",
		ReqSpanBatchForm: "batch_form", ReqSpanGeneration: "generation",
		ReqSpanKernel: "kernel", ReqSpanSerialize: "serialize",
		NumReqSpanKinds: "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d String = %q, want %q", k, k.String(), s)
		}
	}
}

func TestTracePoolRecycles(t *testing.T) {
	var p TracePool
	a := p.Get()
	a.Err = true
	a.AddSpan(ReqSpanParse, -1, 0, 1, 2)
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatalf("pool did not recycle: got %p want %p", b, a)
	}
	if b.Err || len(b.Spans()) != 0 {
		t.Fatalf("recycled trace not reset: %+v", b)
	}
	p.Put(nil) // must not panic
}

func TestTracePoolWarmNoAllocs(t *testing.T) {
	var p TracePool
	p.Put(p.Get()) // warm one entry
	allocs := testing.AllocsPerRun(200, func() {
		tr := p.Get()
		tr.AddSpan(ReqSpanQueueWait, 0, 1, 10, 5)
		tr.AddKernel(10, 3)
		p.Put(tr)
	})
	if allocs != 0 {
		t.Fatalf("warm pool Get/span/Put = %v allocs/op, want 0", allocs)
	}
}

func TestTraceTailSlowestEviction(t *testing.T) {
	tail := NewTraceTail(3, 2)
	mk := func(dur int64, err bool) *ReqTrace {
		var tr ReqTrace
		tr.Reset()
		tr.ID = NewTraceID(uint64(dur), 1)
		tr.Start = 1000
		tr.End = 1000 + dur
		tr.Err = err
		return &tr
	}
	for _, d := range []int64{50, 10, 30} {
		tail.Offer(mk(d, false))
	}
	// 20 is faster than the current min (10)? No: 20 > 10, evicts it.
	tail.Offer(mk(20, false))
	// 5 is slower than nothing retained; dropped.
	tail.Offer(mk(5, false))
	snap := tail.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d, want 3", len(snap))
	}
	durs := []int64{snap[0].DurNs(), snap[1].DurNs(), snap[2].DurNs()}
	if durs[0] != 50 || durs[1] != 30 || durs[2] != 20 {
		t.Fatalf("slow set = %v, want [50 30 20] slowest-first", durs)
	}
	offered, kept := tail.Stats()
	if offered != 5 || kept != 4 {
		t.Errorf("stats = (%d, %d), want (5, 4)", offered, kept)
	}
}

func TestTraceTailErrorRingWraparound(t *testing.T) {
	tail := NewTraceTail(1, 3)
	for i := int64(1); i <= 5; i++ {
		var tr ReqTrace
		tr.Reset()
		tr.Start = i
		tr.End = i + 1
		tr.Err = true
		tail.Offer(&tr)
	}
	snap := tail.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d errored, want ring cap 3", len(snap))
	}
	// Ring keeps the most recent 3 (starts 3,4,5), snapshot oldest-first.
	for i, want := range []int64{3, 4, 5} {
		if snap[i].Start != want {
			t.Errorf("errs[%d].Start = %d, want %d", i, snap[i].Start, want)
		}
	}
}

func TestTraceTailConcurrentWriters(t *testing.T) {
	tail := NewTraceTail(8, 4)
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var tr ReqTrace
				tr.Reset()
				tr.Start = int64(i)
				tr.End = int64(i + w*1000 + 1)
				tr.Err = i%7 == 0
				tail.Offer(&tr)
				if i%64 == 0 {
					_ = tail.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	offered, _ := tail.Stats()
	if offered != writers*500 {
		t.Fatalf("offered = %d, want %d", offered, writers*500)
	}
	snap := tail.Snapshot()
	if len(snap) == 0 || len(snap) > 12 {
		t.Fatalf("snapshot size = %d, want (0,12]", len(snap))
	}
}

func TestTraceTailOfferWarmNoAllocs(t *testing.T) {
	tail := NewTraceTail(4, 2)
	var tr ReqTrace
	tr.Reset()
	tr.Start = 1
	tr.End = 2
	for i := 0; i < 6; i++ {
		tail.Offer(&tr) // fill the slow set
	}
	allocs := testing.AllocsPerRun(200, func() {
		tail.Offer(&tr)
	})
	if allocs != 0 {
		t.Fatalf("warm Offer = %v allocs/op, want 0", allocs)
	}
}

func TestTraceTailJSONExport(t *testing.T) {
	tail := NewTraceTail(2, 2)
	var tr ReqTrace
	tr.Reset()
	tr.ID = NewTraceID(0xabc, 0xdef)
	tr.Span = GenSpanID()
	tr.Model = "default"
	tr.Start = 1000
	tr.End = 3000
	tr.Steps = 4
	tr.AddSpan(ReqSpanParse, -1, 0, 900, 100)
	tr.AddSpan(ReqSpanQueueWait, 2, 4, 1000, 500)
	tr.AddSpan(ReqSpanGeneration, 0, 4, 1500, 1200)
	tr.AddKernel(1500, 800)
	tail.Offer(&tr)
	var buf bytes.Buffer
	if err := tail.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var docs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d, want 1", len(docs))
	}
	d := docs[0]
	if d["model"] != "default" || d["dur_ns"] != float64(2000) || d["steps"] != float64(4) {
		t.Errorf("trace doc = %v", d)
	}
	spans := d["spans"].([]any)
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	// Panel spans carry lane and width, lane 0 included; parse and kernel
	// spans sat in no panel and carry neither.
	for i, want := range []struct {
		kind        string
		lane, width any
	}{
		{"parse", nil, nil},
		{"queue_wait", float64(2), float64(4)},
		{"generation", float64(0), float64(4)},
		{"kernel", nil, nil},
	} {
		sp := spans[i].(map[string]any)
		if sp["kind"] != want.kind || sp["lane"] != want.lane || sp["width"] != want.width {
			t.Errorf("span[%d] = %v, want kind %s lane %v width %v", i, sp, want.kind, want.lane, want.width)
		}
	}
}

func TestTraceTailChromeExport(t *testing.T) {
	tail := NewTraceTail(2, 2)
	var tr ReqTrace
	tr.Reset()
	tr.ID = NewTraceID(7, 9)
	tr.Model = "m"
	tr.Start = 2_000_000
	tr.End = 5_000_000
	tr.AddSpan(ReqSpanGeneration, 0, 2, 2_500_000, 2_000_000)
	tr.AddKernel(0, 1_000_000) // accumulated span anchors at request start
	tail.Offer(&tr)
	var buf bytes.Buffer
	if err := tail.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3 (request + 2 spans)", len(doc.TraceEvents))
	}
	req := doc.TraceEvents[0]
	if req.Ph != "X" || req.Ts != 2000 || req.Dur != 3000 {
		t.Errorf("request event = %+v (Ts/Dur in µs)", req)
	}
	kernel := doc.TraceEvents[2]
	if kernel.Name != "kernel" || kernel.Ts != 2000 {
		t.Errorf("kernel event = %+v, want anchored at request start", kernel)
	}
	if !strings.HasPrefix(buf.String(), `{"traceEvents":`) {
		t.Errorf("missing traceEvents wrapper: %s", buf.String()[:40])
	}
}

func TestSLOWindowMath(t *testing.T) {
	now := int64(1_000_000_000_000) // t0, well past ring size
	clock := func() int64 { return now }
	slo, err := NewSLO(SLOConfig{
		LatencyNs: int64(100 * time.Millisecond),
		Target:    0.9,
		Windows:   []SLOWindow{{Name: "10s", Dur: 10 * time.Second}, {Name: "1m", Dur: time.Minute}},
		Now:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 good + 2 bad (one slow, one errored) at t0.
	for i := 0; i < 8; i++ {
		slo.Observe(int64(50*time.Millisecond), true)
	}
	slo.Observe(int64(500*time.Millisecond), true) // too slow
	slo.Observe(int64(10*time.Millisecond), false) // server error
	r := slo.Report()
	if r.TotalRequests != 10 || r.TotalGood != 8 {
		t.Fatalf("totals = %d/%d, want 8/10", r.TotalGood, r.TotalRequests)
	}
	if r.Attainment != 0.8 || r.Met {
		t.Errorf("attainment = %v met = %v, want 0.8 unmet", r.Attainment, r.Met)
	}
	for _, w := range r.Windows {
		if w.Requests != 10 || w.Good != 8 {
			t.Errorf("window %s = %d/%d, want 8/10", w.Window, w.Good, w.Requests)
		}
		// error rate 0.2 over budget 0.1 → burn rate 2.
		if w.BurnRate < 1.99 || w.BurnRate > 2.01 {
			t.Errorf("window %s burn rate = %v, want 2", w.Window, w.BurnRate)
		}
	}

	// Advance 30s: the 10s window empties, the 1m window still sees t0.
	now += int64(30 * time.Second)
	slo.Observe(int64(10*time.Millisecond), true)
	r = slo.Report()
	if w := r.Windows[0]; w.Requests != 1 || w.Good != 1 || w.BurnRate != 0 {
		t.Errorf("10s window after advance = %+v, want only the fresh request", w)
	}
	if w := r.Windows[1]; w.Requests != 11 || w.Good != 9 {
		t.Errorf("1m window after advance = %+v, want 9/11", w)
	}

	// Advance past the 1m window: everything ages out but cumulative holds.
	now += int64(2 * time.Minute)
	r = slo.Report()
	if w := r.Windows[1]; w.Requests != 0 || w.Attainment != 1 {
		t.Errorf("1m window after expiry = %+v, want empty", w)
	}
	if r.TotalRequests != 11 {
		t.Errorf("cumulative = %d, want 11", r.TotalRequests)
	}
}

func TestSLOBucketRingReuse(t *testing.T) {
	// A 2-bucket ring (1s window at 1s buckets) must reclaim cells as epochs
	// advance rather than double-counting stale data.
	now := int64(0)
	slo, err := NewSLO(SLOConfig{
		LatencyNs: 1, Target: 0.5,
		Windows:  []SLOWindow{{Name: "1s", Dur: time.Second}},
		BucketNs: int64(time.Second),
		Now:      func() int64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		slo.Observe(1, true)
		now += int64(time.Second)
	}
	r := slo.Report()
	// Window covers current + previous epoch; only the previous has data
	// (the loop advanced now after the last Observe).
	if w := r.Windows[0]; w.Requests != 1 {
		t.Errorf("1s window = %+v, want exactly 1 request (ring reclaimed)", w)
	}
	if r.TotalRequests != 10 {
		t.Errorf("cumulative = %d, want 10", r.TotalRequests)
	}
}

func TestSLOConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  SLOConfig
	}{
		{"zero latency", SLOConfig{LatencyNs: 0, Target: 0.9}},
		{"negative latency", SLOConfig{LatencyNs: -5, Target: 0.9}},
		{"zero target", SLOConfig{LatencyNs: 1, Target: 0}},
		{"target above one", SLOConfig{LatencyNs: 1, Target: 1.5}},
		{"bad window", SLOConfig{LatencyNs: 1, Target: 0.9, Windows: []SLOWindow{{Name: "x", Dur: -1}}}},
	}
	for _, tc := range cases {
		if _, err := NewSLO(tc.cfg); err == nil {
			t.Errorf("%s: NewSLO accepted invalid config", tc.name)
		}
	}
	if _, err := NewSLO(SLOConfig{LatencyNs: 1, Target: 1}); err != nil {
		t.Errorf("target 1.0 must be accepted: %v", err)
	}
}

func TestSLOObserveNoAllocs(t *testing.T) {
	slo, err := NewSLO(SLOConfig{LatencyNs: 1000, Target: 0.99, Now: func() int64 { return 12345 }})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		slo.Observe(500, true)
	})
	if allocs != 0 {
		t.Fatalf("Observe = %v allocs/op, want 0", allocs)
	}
}

func TestSLOConcurrentObserve(t *testing.T) {
	slo, err := NewSLO(SLOConfig{LatencyNs: 1000, Target: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				slo.Observe(int64(i), i%2 == 0)
				if i%128 == 0 {
					_ = slo.Report()
				}
			}
		}()
	}
	wg.Wait()
	if _, total := slo.Totals(); total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}

func TestSLOWritePrometheus(t *testing.T) {
	slo, err := NewSLO(SLOConfig{
		LatencyNs: int64(50 * time.Millisecond), Target: 0.99,
		Windows: []SLOWindow{{Name: `5m"evil` + "\n", Dur: 5 * time.Minute}},
		Now:     func() int64 { return 1_000_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	slo.Observe(int64(10*time.Millisecond), true)
	var buf bytes.Buffer
	if err := slo.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rtmobile_slo_latency_threshold_ns 50000000\n",
		"rtmobile_slo_target 0.99\n",
		"rtmobile_slo_requests_total 1\n",
		"rtmobile_slo_good_total 1\n",
		"rtmobile_slo_attainment 1\n",
		`rtmobile_slo_window_requests{window="5m\"evil\n"} 1`,
		`rtmobile_slo_burn_rate{window="5m\"evil\n"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "evil\n\"}") {
		t.Error("raw newline leaked into label value")
	}
}
