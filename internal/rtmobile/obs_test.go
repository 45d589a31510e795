package rtmobile

import (
	"bytes"
	"encoding/json"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/obs"
)

// withMetrics runs fn with the global collector force-enabled, restoring
// the prior state afterwards (tests share one process-wide collector).
func withMetrics(t *testing.T, fn func(m *obs.Metrics)) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	fn(obs.M())
}

// TestStepIntoZeroAllocWithObservability re-runs the real-time allocation
// gate with the full observability stack on: global metrics enabled AND a
// stage tracer attached. The instrumented step must still cost zero heap
// allocations per frame.
func TestStepIntoZeroAllocWithObservability(t *testing.T) {
	withMetrics(t, func(_ *obs.Metrics) {
		for _, target := range []*device.Target{device.MobileCPU(), device.MobileGPU()} {
			eng := allocEngine(t, target)
			eng.EnableTracing()
			s := eng.NewStream()
			frame := testFrames(32, 1, 8)[0]
			dst := make([]float32, 6)
			s.StepInto(dst, frame) // warm up
			if allocs := testing.AllocsPerRun(100, func() {
				s.StepInto(dst, frame)
			}); allocs != 0 {
				t.Fatalf("%s: traced StepInto allocates %v times per frame, want 0",
					target.Name, allocs)
			}
		}
	})
}

// TestInferBatchIntoZeroAllocWithObservability: steady-state batched
// serving with metrics and tracing on must stay allocation-free too.
func TestInferBatchIntoZeroAllocWithObservability(t *testing.T) {
	withMetrics(t, func(_ *obs.Metrics) {
		eng := allocEngine(t, device.MobileGPU())
		eng.SetWorkers(1) // inline path: the zero-alloc serving contract
		eng.EnableTracing()
		batch := [][][]float32{testFrames(40, 6, 8), testFrames(41, 6, 8)}
		dst := eng.InferBatch(batch) // warm up + allocate dst shape
		eng.InferBatchInto(dst, batch)
		if allocs := testing.AllocsPerRun(50, func() {
			eng.InferBatchInto(dst, batch)
		}); allocs != 0 {
			t.Fatalf("traced InferBatchInto allocates %v times per call, want 0", allocs)
		}
	})
}

// TestStreamStepMetersCounters checks the units the collector advances
// per frame: one step, one frame, and exactly the plan's priced MACs.
func TestStreamStepMetersCounters(t *testing.T) {
	withMetrics(t, func(m *obs.Metrics) {
		eng := allocEngine(t, device.MobileCPU())
		s := eng.NewStream()
		frame := testFrames(50, 1, 8)[0]
		dst := make([]float32, 6)

		steps0 := m.StepsTotal.Value()
		frames0 := m.FramesTotal.Value()
		macs0 := m.MACsTotal.Value()
		hist0 := m.StepLatency.Snapshot().Count
		const N = 17
		for i := 0; i < N; i++ {
			s.StepInto(dst, frame)
		}
		if got := m.StepsTotal.Value() - steps0; got != N {
			t.Fatalf("StepsTotal advanced %d, want %d", got, N)
		}
		if got := m.FramesTotal.Value() - frames0; got != N {
			t.Fatalf("FramesTotal advanced %d, want %d", got, N)
		}
		wantMACs := N * stepPricedMACs(eng.Plan())
		if got := m.MACsTotal.Value() - macs0; got != wantMACs {
			t.Fatalf("MACsTotal advanced %d, want %d", got, wantMACs)
		}
		if got := m.StepLatency.Snapshot().Count - hist0; got != N {
			t.Fatalf("StepLatency observed %d samples, want %d", got, N)
		}
	})
}

// TestStreamStepMetersBytesStreamed: each step streams the plan-priced
// weight+index traffic, and quantization shrinks it — an int8 deployment
// advances BytesStreamed by strictly less per step than the float one.
// The engine's programs also record one kernel execution each step.
func TestStreamStepMetersBytesStreamed(t *testing.T) {
	stepBytes := func(t *testing.T, quantBits int) uint64 {
		t.Helper()
		var advanced uint64
		withMetrics(t, func(m *obs.Metrics) {
			model := testModel(31)
			res := Prune(model, nil, PruneConfig{
				ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
			})
			eng, err := Compile(model, res.Scheme, DeployConfig{
				Target: device.MobileCPU(), Quant: quantBits,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr := eng.EnableTracing()
			s := eng.NewStream()
			frame := testFrames(50, 1, 8)[0]
			dst := make([]float32, 6)
			b0 := m.BytesStreamed.Value()
			const N = 5
			for i := 0; i < N; i++ {
				s.StepInto(dst, frame)
			}
			advanced = m.BytesStreamed.Value() - b0
			if advanced%N != 0 {
				t.Fatalf("BytesStreamed advanced %d, not a multiple of %d steps", advanced, N)
			}
			// Every program records one kernel execution per step,
			// whatever its storage width.
			wantSpans := uint64(N * len(eng.Plan().Matrices))
			if got, _ := tr.KindTotal(obs.StageKernel); got != wantSpans {
				t.Fatalf("quant=%d: %d kernel executions, want %d", quantBits, got, wantSpans)
			}
			advanced /= N
		})
		return advanced
	}
	f32 := stepBytes(t, 0)
	q8 := stepBytes(t, 8)
	if f32 == 0 || q8 == 0 {
		t.Fatalf("degenerate per-step stream bytes: f32=%d q8=%d", f32, q8)
	}
	if q8 >= f32 {
		t.Fatalf("int8 step streams %d bytes, float %d — quantization must shrink the stream", q8, f32)
	}
}

// TestInferMetersUtteranceCounters: Infer advances the utterance counter
// and one latency sample, and frames accrue via the stream path.
func TestInferMetersUtteranceCounters(t *testing.T) {
	withMetrics(t, func(m *obs.Metrics) {
		eng := allocEngine(t, device.MobileCPU())
		frames := testFrames(51, 9, 8)
		infer0 := m.InferTotal.Value()
		frames0 := m.FramesTotal.Value()
		eng.Infer(frames)
		if got := m.InferTotal.Value() - infer0; got != 1 {
			t.Fatalf("InferTotal advanced %d, want 1", got)
		}
		if got := m.FramesTotal.Value() - frames0; got != uint64(len(frames)) {
			t.Fatalf("FramesTotal advanced %d, want %d", got, len(frames))
		}
	})
}

// TestBatchServingMetersArenaAndLanes: with one worker, a batch leases one
// width-1 session — a miss on the first call, a hit on every later one —
// and steps each utterance's frames on it, so batch steps, lanes and frames
// advance together and executed arithmetic is exactly the frames scored
// (no step computes for an utterance that has ended).
func TestBatchServingMetersArenaAndLanes(t *testing.T) {
	withMetrics(t, func(m *obs.Metrics) {
		eng := allocEngine(t, device.MobileGPU())
		eng.SetWorkers(1)
		// Ragged eight: 4 or 2 frames each, 4×4+4×2=24 frames scored.
		batch := make([][][]float32, 8)
		for i := range batch {
			batch[i] = testFrames(60+uint64(i), 4-2*(i%2), 8)
		}

		misses0 := m.ArenaMisses.Value()
		hits0 := m.ArenaHits.Value()
		bsteps0 := m.BatchStepsTotal.Value()
		lanes0 := m.BatchLanesTotal.Value()
		frames0 := m.FramesTotal.Value()
		macs0 := m.MACsTotal.Value()
		batches0 := m.InferBatchTotal.Value()

		eng.InferBatch(batch)
		if got := m.ArenaMisses.Value() - misses0; got != 1 {
			t.Fatalf("first batch: %d arena misses, want 1", got)
		}
		eng.InferBatch(batch)
		eng.InferBatch(batch)
		if got := m.ArenaMisses.Value() - misses0; got != 1 {
			t.Fatalf("later batches: %d arena misses in all, want the first call's 1", got)
		}
		if got := m.ArenaHits.Value() - hits0; got != 2 {
			t.Fatalf("later batches: %d arena hits, want 2 (one per call)", got)
		}
		if got := m.InferBatchTotal.Value() - batches0; got != 3 {
			t.Fatalf("InferBatchTotal advanced %d, want 3", got)
		}
		if got := m.FramesTotal.Value() - frames0; got != 72 {
			t.Fatalf("FramesTotal advanced %d, want 72 (24 frames × 3 calls)", got)
		}
		if got := m.BatchStepsTotal.Value() - bsteps0; got != 72 {
			t.Fatalf("BatchStepsTotal advanced %d, want 72 (one width-1 step per frame)", got)
		}
		if got := m.BatchLanesTotal.Value() - lanes0; got != 72 {
			t.Fatalf("BatchLanesTotal advanced %d, want 72", got)
		}
		wantMACs := (m.FramesTotal.Value() - frames0) * stepPricedMACs(eng.Plan())
		if got := m.MACsTotal.Value() - macs0; got != wantMACs {
			t.Fatalf("MACsTotal advanced %d, want FramesTotal × priced step MACs = %d", got, wantMACs)
		}
	})
}

// TestLayerStatsConsistency pins the run -stats contract: per-layer priced
// MACs sum exactly to the plan's per-timestep total, and with tracing on
// each layer's span count equals the steps taken.
func TestLayerStatsConsistency(t *testing.T) {
	eng := allocEngine(t, device.MobileCPU())
	tr := eng.EnableTracing()
	s := eng.NewStream()
	frame := testFrames(70, 1, 8)[0]
	dst := make([]float32, 6)
	const N = 5
	for i := 0; i < N; i++ {
		s.StepInto(dst, frame)
	}

	stats := eng.LayerStats()
	if len(stats) != len(eng.shell.Layers) {
		t.Fatalf("LayerStats rows %d, want %d", len(stats), len(eng.shell.Layers))
	}
	sumMACs := 0
	for _, ls := range stats {
		if ls.Name == "" {
			t.Fatalf("layer %d has no name", ls.Index)
		}
		if ls.MACs <= 0 {
			t.Fatalf("layer %s priced at %d MACs", ls.Name, ls.MACs)
		}
		if ls.Spans != N {
			t.Fatalf("layer %s recorded %d spans, want %d", ls.Name, ls.Spans, N)
		}
		if ls.TotalNs < 0 || ls.AvgNs() < 0 {
			t.Fatalf("layer %s negative timing %d", ls.Name, ls.TotalNs)
		}
		sumMACs += ls.MACs
	}
	if want := int(stepPricedMACs(eng.Plan())); sumMACs != want {
		t.Fatalf("per-layer MACs sum %d != plan per-step total %d", sumMACs, want)
	}
	if want := eng.Plan().FrameMACs() / TimestepsPerFrame; sumMACs != want {
		t.Fatalf("per-layer MACs sum %d != FrameMACs/TimestepsPerFrame %d", sumMACs, want)
	}
	// The tracer's own per-layer totals are what the rows report.
	for i := range stats {
		if count, ns := tr.Stage(obs.StageLayer, i); count != N || ns != stats[i].TotalNs {
			t.Fatalf("layer %d: tracer total %d/%d ns, want %d/%d ns", i, count, ns, N, stats[i].TotalNs)
		}
	}
}

// TestMetricsDisabledFastPath: with the collector off, nothing advances.
func TestMetricsDisabledFastPath(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	m := obs.M()
	obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	eng := allocEngine(t, device.MobileCPU())
	steps0 := m.StepsTotal.Value()
	s := eng.NewStream()
	dst := make([]float32, 6)
	s.StepInto(dst, testFrames(80, 1, 8)[0])
	if got := m.StepsTotal.Value(); got != steps0 {
		t.Fatalf("disabled collector advanced StepsTotal %d → %d", steps0, got)
	}
}

// TestStepIntoMetersMACsOnce: with collection on (the RTMOBILE_METRICS=1
// state, forced by withMetrics whatever the environment says), one StepInto advances the exported rtmobile_macs_total by exactly the plan's
// per-step price — the step is the one metering site; the programs it runs
// add nothing on top — on float and quantized deployments, compiled or
// mapped.
func TestStepIntoMetersMACsOnce(t *testing.T) {
	exported := func(m *obs.Metrics) uint64 {
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var flat map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
			t.Fatal(err)
		}
		var v uint64
		if err := json.Unmarshal(flat["rtmobile_macs_total"], &v); err != nil {
			t.Fatalf("rtmobile_macs_total: %v", err)
		}
		return v
	}
	withMetrics(t, func(m *obs.Metrics) {
		for _, quantBits := range []int{0, 8} {
			eng, _ := v5TestEngine(t, 111, DeployConfig{Target: device.MobileCPU(), Quant: quantBits})
			mb, err := MapBundle(writeBundleFile(t, eng), device.MobileCPU())
			if err != nil {
				t.Fatal(err)
			}
			defer mb.Close()
			for name, e := range map[string]*Engine{"compiled": eng, "mapped": mb.Engine()} {
				s := e.NewStream()
				dst := make([]float32, e.OutputDim())
				frame := testFrames(112, 1, e.InputDim())[0]
				before := exported(m)
				s.StepInto(dst, frame)
				if got, want := exported(m)-before, stepPricedMACs(e.Plan()); got != want {
					t.Fatalf("quant=%d %s: one StepInto advanced rtmobile_macs_total by %d, want %d",
						quantBits, name, got, want)
				}
			}
		}
	})
}
