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
	if tier, _, fell := fast.Precision(); tier != compiler.PrecisionFast || fell {
		t.Fatalf("Precision() = %v, fellBack=%v, want fast", tier, fell)
	}
	if fast.Plan().Options.Precision != compiler.PrecisionFast {
		t.Fatalf("plan precision %v, want fast", fast.Plan().Options.Precision)
	}
	if tier, _, _ := exact.Precision(); tier != compiler.PrecisionExact {
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

// TestPrecisionGuardrail: a permissive budget keeps the fast tier, a
// (practically) zero budget's verdict is internally consistent, and the
// caller's model is never mutated on the guarded path.
func TestPrecisionGuardrail(t *testing.T) {
	m := testModel(63)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	snapshot := m.Clone()
	guard := guardSet(3, 12, 8)

	keep, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Precision: compiler.PrecisionFast,
		PrecisionGuardSet: guard, PrecisionGuardMaxDelta: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tier, _, fell := keep.Precision(); tier != compiler.PrecisionFast || fell {
		t.Fatalf("permissive guardrail rejected fast tier: tier=%v fellBack=%v", tier, fell)
	}

	drop, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Precision: compiler.PrecisionFast,
		PrecisionGuardSet: guard, PrecisionGuardMaxDelta: -1e-9, // any increase rejects
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fallback ⇔ the engine runs exact kernels; the delta is reported
	// either way.
	tier, delta, fell := drop.Precision()
	if fell && tier != compiler.PrecisionExact {
		t.Fatalf("fell back but tier=%v", tier)
	}
	if !fell && tier != compiler.PrecisionFast {
		t.Fatalf("kept fast tier but tier=%v", tier)
	}
	if fell && delta <= 0 {
		t.Fatalf("fallback with non-positive delta %v", delta)
	}

	snapParams := snapshot.Params()
	for pi, p := range m.Params() {
		want := snapParams[pi]
		for i := range p.W.Data {
			if p.W.Data[i] != want.W.Data[i] {
				t.Fatalf("guarded Compile mutated caller model at %s[%d]", p.Name, i)
			}
		}
	}
}

// TestReprecisionResetsPlanCache is the plan-cache invalidation contract:
// switching tiers discards the tuning verdict (a measured TuneRecord
// priced the old tier's kernels), while Requantize — which keeps the tier
// — still carries both the record and the tier through.
func TestReprecisionResetsPlanCache(t *testing.T) {
	m := testModel(64)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	eng.tuned = TuneRecord{Mode: TuneMeasured, Cost: 1234}

	fast, err := eng.Reprecision(compiler.PrecisionFast, res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if tier, _, _ := fast.Precision(); tier != compiler.PrecisionFast {
		t.Fatalf("Reprecision tier %v, want fast", tier)
	}
	if fast.Tuned().Mode != TuneNone {
		t.Fatalf("tier change kept the plan cache: %+v (want TuneNone)", fast.Tuned())
	}
	if eng.Tuned().Mode != TuneMeasured {
		t.Fatalf("Reprecision mutated the receiver: %+v", eng.Tuned())
	}

	// Same tier: no rebuild, the receiver comes back unchanged.
	same, err := eng.Reprecision(compiler.PrecisionExact, res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if same != eng {
		t.Fatal("same-tier Reprecision rebuilt the engine")
	}
	if _, err := eng.Reprecision(compiler.Precision(7), res.Scheme); err == nil {
		t.Fatal("Reprecision accepted an invalid tier")
	}

	// Requantize keeps both the tier and the plan cache (weights and
	// kernel family are re-priced identically; only storage width moves).
	fast.tuned = TuneRecord{Mode: TuneMeasured, Cost: 99}
	rq, err := fast.Requantize(8, res.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if tier, _, _ := rq.Precision(); tier != compiler.PrecisionFast {
		t.Fatalf("Requantize dropped the fast tier: %v", tier)
	}
	if rq.Tuned().Mode != TuneMeasured {
		t.Fatalf("Requantize dropped the plan cache: %+v", rq.Tuned())
	}
}

// TestPrecisionBundleV4RoundTrip: the precision tier survives save/load
// for both tiers and all storage widths, so a reloaded bundle re-selects
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
			loaded, _, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileCPU())
			if err != nil {
				t.Fatalf("tier=%v quant=%d: %v", tier, quant, err)
			}
			if got, _, _ := loaded.Precision(); got != tier {
				t.Fatalf("tier=%v quant=%d: loaded bundle reports tier %v", tier, quant, got)
			}
			if loaded.Plan().Options.Precision != tier {
				t.Fatalf("tier=%v: loaded plan compiled under %v",
					tier, loaded.Plan().Options.Precision)
			}
		}
	}
}
