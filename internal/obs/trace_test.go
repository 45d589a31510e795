package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerAggregation(t *testing.T) {
	tr := NewTracer(128, 4)
	tr.Record(StageLayer, 0, 1, 100, 10)
	tr.Record(StageLayer, 0, 1, 200, 20)
	tr.Record(StageLayer, 2, 1, 300, 5)
	tr.Record(StageStep, 0, 1, 400, 40)
	if c, ns := tr.Stage(StageLayer, 0); c != 2 || ns != 30 {
		t.Fatalf("layer 0: count %d ns %d, want 2/30", c, ns)
	}
	if c, ns := tr.Stage(StageLayer, 2); c != 1 || ns != 5 {
		t.Fatalf("layer 2: count %d ns %d", c, ns)
	}
	if c, ns := tr.KindTotal(StageLayer); c != 3 || ns != 35 {
		t.Fatalf("layer kind total: count %d ns %d", c, ns)
	}
	if c, _ := tr.KindTotal(StageStep); c != 1 {
		t.Fatalf("step kind total count %d", c)
	}
	// Out-of-range IDs clamp onto the last slot instead of escaping.
	tr.Record(StageKernel, 99, 1, 0, 7)
	tr.Record(StageKernel, -1, 1, 0, 3)
	if c, ns := tr.Stage(StageKernel, 3); c != 1 || ns != 7 {
		t.Fatalf("clamped high id: %d/%d", c, ns)
	}
	if c, ns := tr.Stage(StageKernel, 0); c != 1 || ns != 3 {
		t.Fatalf("clamped low id: %d/%d", c, ns)
	}
}

func TestTracerRingOrderAndWrap(t *testing.T) {
	tr := NewTracer(1, 2) // rounds up to the 64-slot minimum
	if tr.RingCap() != 64 {
		t.Fatalf("ring cap %d, want 64", tr.RingCap())
	}
	for i := 0; i < 100; i++ {
		tr.Record(StageStep, 0, 1, int64(i), int64(i))
	}
	spans := tr.Spans()
	if len(spans) != 64 {
		t.Fatalf("snapshot holds %d spans, want 64", len(spans))
	}
	// Oldest surviving span is #36 (100 recorded, 64 kept).
	for i, sp := range spans {
		if want := int64(36 + i); sp.Start != want || sp.Dur != want {
			t.Fatalf("span %d = %+v, want start/dur %d", i, sp, want)
		}
	}
	if tr.Recorded() != 100 {
		t.Fatalf("recorded %d, want 100", tr.Recorded())
	}
}

func TestTracerMetaPacking(t *testing.T) {
	tr := NewTracer(64, 8)
	tr.Record(StageBatchStep, 5, 32, 1111, 2222)
	sp := tr.Spans()[0]
	if sp.Kind != StageBatchStep || sp.ID != 5 || sp.Width != 32 ||
		sp.Start != 1111 || sp.Dur != 2222 {
		t.Fatalf("span round-trip = %+v", sp)
	}
}

// TestTracerConcurrent: concurrent recorders (with snapshotters racing
// them) keep exact aggregation totals. Run under -race by make race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256, 4)
	const writers, perWriter = 8, 2_000
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Spans()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(StageLayer, int32(w%4), 1, int64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if c, ns := tr.KindTotal(StageLayer); c != writers*perWriter || ns != writers*perWriter {
		t.Fatalf("kind total %d/%d, want %d", c, ns, writers*perWriter)
	}
}

func TestRecordSince(t *testing.T) {
	tr := NewTracer(64, 2)
	t0 := time.Now()
	tr.RecordSince(StageInfer, 0, 1, t0)
	sp := tr.Spans()[0]
	if sp.Kind != StageInfer || sp.Dur < 0 {
		t.Fatalf("span %+v", sp)
	}
	if sp.Start == 0 {
		t.Fatal("start not stamped")
	}
}

func TestStageKindStrings(t *testing.T) {
	names := map[StageKind]string{
		StageStep: "step", StageLayer: "layer", StageKernel: "kernel",
		StageBatchStep: "batch_step", StageInfer: "infer",
		StageInferBatch: "infer_batch", StageKernelFast: "kernel_fast",
		StageEpilogue: "epilogue", NumStageKinds: "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(64, 2)
	tr.Record(StageStep, 0, 1, 1, 1)
	tr.Reset()
	if tr.Recorded() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("reset left spans behind")
	}
	if c, _ := tr.KindTotal(StageStep); c != 0 {
		t.Fatal("reset left aggregation behind")
	}
}
