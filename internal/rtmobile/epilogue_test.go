package rtmobile

import (
	"math"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/obs"
)

// TestEngineEpilogueSpans: a traced engine's streams record one
// StageEpilogue execution per GRU layer per step, on both kernel tiers, so
// run -stats//statz can split layer time into matmul vs epilogue; every
// program's executions land under StageKernel on either tier.
func TestEngineEpilogueSpans(t *testing.T) {
	for _, tier := range []compiler.Precision{compiler.PrecisionExact, compiler.PrecisionFast} {
		m := testModel(71)
		res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
		eng, err := Compile(m, res.Scheme, DeployConfig{
			Target: device.MobileCPU(), Precision: tier,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := eng.EnableTracing()
		s := eng.NewStream()
		dst := make([]float32, eng.OutputDim())
		const steps = 6
		for _, f := range testFrames(72, steps, eng.InputDim()) {
			s.StepInto(dst, f)
		}
		count, ns := tr.KindTotal(obs.StageEpilogue)
		if want := uint64(2 * steps); count != want { // testModel has 2 GRU layers
			t.Fatalf("tier %v: %d epilogue spans, want %d", tier, count, want)
		}
		_, layerNs := tr.KindTotal(obs.StageLayer)
		if ns > layerNs {
			t.Fatalf("tier %v: epilogue %d ns exceeds layer %d ns", tier, ns, layerNs)
		}
		// Both tiers' programs total under the one kernel kind.
		want := uint64(steps * len(eng.Plan().Matrices))
		if n, _ := tr.KindTotal(obs.StageKernel); n != want {
			t.Fatalf("tier %v: %d kernel executions, want %d", tier, n, want)
		}
	}
}

// TestFusedEngineStreamPosteriors: a fast-tier stream's posteriors (now
// produced by the vectorized softmax) stay tolerance-close to the exact
// engine's across all three entry points, and each row still sums to 1.
func TestFusedEngineStreamPosteriors(t *testing.T) {
	m := testModel(73)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	exact, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Compile(m.Clone(), res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Precision: compiler.PrecisionFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(74, 10, exact.InputDim())
	es, fs := exact.NewStream(), fast.NewStream()
	want := make([]float32, exact.OutputDim())
	got := make([]float32, fast.OutputDim())
	const tol = 1e-3
	for ti, f := range frames {
		es.StepInto(want, f)
		fs.StepInto(got, f)
		sum := 0.0
		for j := range got {
			sum += float64(got[j])
			if d := math.Abs(float64(got[j] - want[j])); d > tol {
				t.Fatalf("frame %d phone %d: fast %v vs exact %v (|Δ|=%g)", ti, j, got[j], want[j], d)
			}
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("frame %d: fast posteriors sum to %v", ti, sum)
		}
	}
	// Infer (the offline path) runs the same fast softmax: its posteriors
	// must match the stream's bit-for-bit — one kernel family per tier.
	utt := fast.Infer(frames)
	fs.Reset()
	for ti, f := range frames {
		fs.StepInto(got, f)
		for j := range got {
			if got[j] != utt[ti][j] {
				t.Fatalf("frame %d phone %d: Infer %v vs stream %v", ti, j, utt[ti][j], got[j])
			}
		}
	}
}
