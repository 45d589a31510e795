package rtmobile

import (
	"bytes"
	"math"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
)

// fastEngine deploys a small pruned model on the fast kernel tier (fp32
// CPU target, so the tier is the only numeric difference from the exact
// twin).
func fastEngine(t *testing.T, quant int) *Engine {
	t.Helper()
	m := testModel(61)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Quant: quant,
		Precision: compiler.PrecisionFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCompilePrecisionRejectsBadTier(t *testing.T) {
	m := testModel(62)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	if _, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Precision: compiler.Precision(9),
	}); err == nil {
		t.Fatal("Precision(9) accepted")
	}
}

// TestFastEngineInferWithinTolerance: a fast-tier deployment's posteriors
// stay tolerance-close to the exact twin's on the same model and inputs,
// the tier is reported on the engine and the plan, and fast inference is
// run-to-run deterministic.
func TestFastEngineInferWithinTolerance(t *testing.T) {
	m := testModel(61)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	exact, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	fast := fastEngine(t, 0)
	if tier := fast.Precision(); tier != compiler.PrecisionFast {
		t.Fatalf("Precision() = %v, want fast", tier)
	}
	if fast.Plan().Options.Precision != compiler.PrecisionFast {
		t.Fatalf("plan precision %v, want fast", fast.Plan().Options.Precision)
	}
	if tier := exact.Precision(); tier != compiler.PrecisionExact {
		t.Fatalf("exact engine reports tier %v", tier)
	}

	frames := testFrames(7, 24, 8)
	want := exact.Infer(frames)
	got := fast.Infer(frames)
	// Posteriors live in [0, 1]; the fast tier only reorders float
	// rounding inside each projection, and the GRU gates are contractive,
	// so even over a 24-frame recurrence the drift stays tiny.
	const tol = 1e-3
	for ti := range want {
		for j := range want[ti] {
			if d := math.Abs(float64(want[ti][j] - got[ti][j])); d > tol {
				t.Fatalf("frame %d phone %d: fast %v vs exact %v (|Δ|=%g > %g)",
					ti, j, got[ti][j], want[ti][j], d, tol)
			}
		}
	}
	again := fast.Infer(frames)
	for ti := range got {
		for j := range got[ti] {
			if got[ti][j] != again[ti][j] {
				t.Fatalf("fast Infer not deterministic at frame %d phone %d", ti, j)
			}
		}
	}
}

// TestFastEngineBatchWithinTolerance: every utterance of a fast-tier
// InferBatch stays tolerance-close to the exact engine's serial Infer —
// the batched fast kernels accumulate per lane in a different (but
// equally f32) order than the serial fast kernels, so the cross-check is
// against the exact oracle, as in the compiler-level suites.
func TestFastEngineBatchWithinTolerance(t *testing.T) {
	m := testModel(61)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	exact, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	for _, quant := range []int{0, 8, 16} {
		fast := fastEngine(t, quant)
		// Quantized deployments round their weights, so their exact twin
		// must share those weights: rebuild the oracle from the fast
		// engine's programs (already round-tripped through quantization).
		oracle := exact
		if quant != 0 {
			oracle, err = Compile(fast.denseModel(), res.Scheme, DeployConfig{
				Target: device.MobileCPU(), Quant: quant,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		batch := [][][]float32{
			testFrames(31, 9, 8), testFrames(32, 14, 8), testFrames(33, 6, 8),
		}
		got := fast.InferBatch(batch)
		const tol = 1e-3
		for u := range batch {
			want := oracle.Infer(batch[u])
			for ti := range want {
				for j := range want[ti] {
					if d := math.Abs(float64(want[ti][j] - got[u][ti][j])); d > tol {
						t.Fatalf("quant=%d utt %d frame %d phone %d: fast batch %v vs exact %v (|Δ|=%g)",
							quant, u, ti, j, got[u][ti][j], want[ti][j], d)
					}
				}
			}
		}
	}
}

// TestPrecisionBundleV4RoundTrip: the precision tier survives save/map
// for both tiers and all storage widths, so a served bundle re-selects
// the same kernel family.
func TestPrecisionBundleV4RoundTrip(t *testing.T) {
	for _, tier := range []compiler.Precision{compiler.PrecisionExact, compiler.PrecisionFast} {
		for _, quant := range []int{0, 8} {
			m := testModel(65)
			res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
			eng, err := Compile(m, res.Scheme, DeployConfig{
				Target: device.MobileCPU(), Quant: quant, Precision: tier,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
				t.Fatal(err)
			}
			loaded := mustMap(t, buf.Bytes(), device.MobileCPU())
			if got := loaded.Precision(); got != tier {
				t.Fatalf("tier=%v quant=%d: loaded bundle reports tier %v", tier, quant, got)
			}
			if loaded.Plan().Options.Precision != tier {
				t.Fatalf("tier=%v: loaded plan compiled under %v",
					tier, loaded.Plan().Options.Precision)
			}
		}
	}
}
