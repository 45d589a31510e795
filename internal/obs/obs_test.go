package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentTotal: totals are deterministic under concurrent
// writers on every stripe-selection path (run under -race via make race).
func TestCounterConcurrentTotal(t *testing.T) {
	var c Counter
	const writers, perWriter = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := uint32(w)
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					c.Inc()
				case 1:
					c.AddAt(shard, 1)
				default:
					c.IncAt(shard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter total %d, want %d", got, writers*perWriter)
	}
}

// TestCounterStripeSpread: distinct shard hints land on distinct stripes so
// hot writers do not share cache lines.
func TestCounterStripeSpread(t *testing.T) {
	var c Counter
	for s := uint32(0); s < NumStripes; s++ {
		c.AddAt(s, uint64(s)+1)
	}
	for s := 0; s < NumStripes; s++ {
		if got := c.stripes[s].n.Load(); got != uint64(s)+1 {
			t.Fatalf("stripe %d holds %d, want %d", s, got, s+1)
		}
	}
	// Out-of-range shards wrap instead of escaping the array.
	c.AddAt(NumStripes+3, 100)
	if got := c.stripes[3].n.Load(); got != 4+100 {
		t.Fatalf("wrapped shard landed on %d", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-7)
	if got := g.Value(); got != -2 {
		t.Fatalf("gauge %d, want -2", got)
	}
}

func TestPerWorker(t *testing.T) {
	var p PerWorker
	if got := p.Values(); got != nil {
		t.Fatalf("zero table Values = %v, want nil", got)
	}
	p.Add(0, 10)
	p.Add(3, 30)
	p.Add(-1, 5)                  // clamps to slot 0
	p.Add(MaxTrackedWorkers+3, 7) // folds onto slot 3
	vals := p.Values()
	if len(vals) != 4 || vals[0] != 15 || vals[3] != 37 {
		t.Fatalf("Values = %v", vals)
	}
	if p.Value(3) != 37 || p.Value(MaxTrackedWorkers+3) != 37 {
		t.Fatalf("folded slot reads %d / %d", p.Value(3), p.Value(MaxTrackedWorkers+3))
	}
}

// TestHistogramBucketBoundaries: values at, below, and above each bound
// land in the documented bucket (bounds are inclusive upper edges).
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 0}, // at/below first bound
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // +Inf bucket
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := []uint64{4, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != uint64(len(cases)) || s.BucketTotal() != s.Count {
		t.Fatalf("count %d, bucket total %d, want %d", s.Count, s.BucketTotal(), len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if s.Sum != sum {
		t.Fatalf("sum %d, want %d", s.Sum, sum)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"empty":      {},
		"descending": {10, 5},
		"duplicate":  {10, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s bounds accepted", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramConcurrent: concurrent observers produce an exact total once
// they quiesce, and snapshots taken while they run never tear (every field
// is a value that was actually stored; bucket totals never exceed the
// number of observations started).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	const writers, perWriter = 8, 5_000
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.BucketTotal() > writers*perWriter || s.Count > writers*perWriter {
				snapErr = &tornSnapshot{total: s.BucketTotal(), count: s.Count}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	s := h.Snapshot()
	if s.Count != writers*perWriter || s.BucketTotal() != writers*perWriter {
		t.Fatalf("count %d, bucket total %d, want %d", s.Count, s.BucketTotal(), writers*perWriter)
	}
}

type tornSnapshot struct {
	total, count uint64
}

func (e *tornSnapshot) Error() string { return "snapshot overshot live writers" }

// TestEnableDisable: SetEnabled swaps the instrument set and M() reflects
// it; re-enabling yields fresh zeroed metrics.
func TestEnableDisable(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(true)
	M().StepsTotal.Add(7)
	if got := M().StepsTotal.Value(); got != 7 {
		t.Fatalf("counter %d, want 7", got)
	}
	SetEnabled(false)
	if M() != nil || Enabled() {
		t.Fatal("disabled but M() != nil")
	}
	SetEnabled(true)
	if got := M().StepsTotal.Value(); got != 0 {
		t.Fatalf("re-enable kept stale count %d", got)
	}
}

// TestWritePathsAllocationFree locks in design rule 1: counter adds,
// histogram observes, and tracer records cost zero heap allocations.
func TestWritePathsAllocationFree(t *testing.T) {
	var c Counter
	h := NewHistogram(DefaultLatencyBounds())
	tr := NewTracer(8)
	if a := testing.AllocsPerRun(200, func() { c.AddAt(3, 1) }); a != 0 {
		t.Fatalf("Counter.AddAt allocates %v", a)
	}
	if a := testing.AllocsPerRun(200, func() { h.Observe(12345) }); a != 0 {
		t.Fatalf("Histogram.Observe allocates %v", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		tr.Record(StageLayer, 2, 500)
	}); a != 0 {
		t.Fatalf("Tracer.Record allocates %v", a)
	}
}

func TestExpositionFormats(t *testing.T) {
	m := NewMetrics()
	m.StepsTotal.Add(3)
	m.MACsTotal.Add(12345)
	m.PoolQueueDepth.Set(2)
	m.PoolBusyNs.Add(1, 999)
	m.StepLatency.Observe(1500)
	m.StepLatency.Observe(3_000_000)

	var prom strings.Builder
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE rtmobile_steps_total counter",
		"rtmobile_steps_total 3",
		"rtmobile_macs_total 12345",
		"rtmobile_pool_queue_depth 2",
		`rtmobile_pool_worker_busy_ns_total{worker="1"} 999`,
		`rtmobile_step_latency_ns_bucket{le="2500"} 1`,
		`rtmobile_step_latency_ns_bucket{le="+Inf"} 2`,
		"rtmobile_step_latency_ns_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var js strings.Builder
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	jtext := js.String()
	for _, want := range []string{
		`"rtmobile_steps_total": 3`,
		`"rtmobile_macs_total": 12345`,
		`"count": 2`,
	} {
		if !strings.Contains(jtext, want) {
			t.Fatalf("json output missing %q:\n%s", want, jtext)
		}
	}
}
