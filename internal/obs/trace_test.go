package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerAggregation(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(StageLayer, 0, 10)
	tr.Record(StageLayer, 0, 20)
	tr.Record(StageLayer, 2, 5)
	tr.Record(StageEpilogue, 0, 4)
	if c, ns := tr.Stage(StageLayer, 0); c != 2 || ns != 30 {
		t.Fatalf("layer 0: count %d ns %d, want 2/30", c, ns)
	}
	if c, ns := tr.Stage(StageLayer, 2); c != 1 || ns != 5 {
		t.Fatalf("layer 2: count %d ns %d", c, ns)
	}
	if c, ns := tr.KindTotal(StageLayer); c != 3 || ns != 35 {
		t.Fatalf("layer kind total: count %d ns %d", c, ns)
	}
	if c, ns := tr.KindTotal(StageEpilogue); c != 1 || ns != 4 {
		t.Fatalf("epilogue kind total: count %d ns %d", c, ns)
	}
	// Out-of-range IDs clamp onto the end slots instead of escaping.
	tr.Record(StageKernel, 99, 7)
	tr.Record(StageKernel, -1, 3)
	if c, ns := tr.Stage(StageKernel, 3); c != 1 || ns != 7 {
		t.Fatalf("clamped high id: %d/%d", c, ns)
	}
	if c, ns := tr.Stage(StageKernel, 0); c != 1 || ns != 3 {
		t.Fatalf("clamped low id: %d/%d", c, ns)
	}
	// A degenerate slot count still gives every kind one cell.
	one := NewTracer(0)
	one.Record(StageKernel, 5, 2)
	if c, ns := one.KindTotal(StageKernel); c != 1 || ns != 2 {
		t.Fatalf("single-slot tracer: %d/%d", c, ns)
	}
}

// TestTracerConcurrent: concurrent recorders keep exact aggregation
// totals. Run under -race by make race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(4)
	const writers, perWriter = 8, 2_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(StageLayer, int32(w%4), 1)
			}
		}(w)
	}
	wg.Wait()
	if c, ns := tr.KindTotal(StageLayer); c != writers*perWriter || ns != writers*perWriter {
		t.Fatalf("kind total %d/%d, want %d", c, ns, writers*perWriter)
	}
}

func TestRecordSince(t *testing.T) {
	tr := NewTracer(2)
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	tr.RecordSince(StageKernel, 1, t0)
	c, ns := tr.Stage(StageKernel, 1)
	if c != 1 || ns < int64(time.Millisecond) {
		t.Fatalf("RecordSince total %d/%d, want 1 execution of at least 1ms", c, ns)
	}
}

func TestStageKindStrings(t *testing.T) {
	names := map[StageKind]string{
		StageLayer: "layer", StageKernel: "kernel",
		StageEpilogue: "epilogue", NumStageKinds: "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
