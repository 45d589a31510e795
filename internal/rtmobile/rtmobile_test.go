package rtmobile

import (
	"math"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: seed,
	})
}

func testFrames(seed uint64, T, dim int) [][]float32 {
	rng := tensor.NewRNG(seed)
	frames := make([][]float32, T)
	for t := range frames {
		row := make([]float32, dim)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		frames[t] = row
	}
	return frames
}

func TestPruneProjectOnly(t *testing.T) {
	m := testModel(1)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	if res.CompressionRate() <= 3 {
		t.Fatalf("compression rate %v too low", res.CompressionRate())
	}
	if res.Scheme.ColRate != 4 || res.Scheme.RowRate != 2 {
		t.Fatal("scheme not propagated")
	}
	// The model's matrices must satisfy the scheme.
	for _, p := range m.WeightMatrices() {
		if !res.Scheme.Project(p.W).AllClose(p.W, 1e-6) {
			t.Fatalf("%s violates BSP after Prune", p.Name)
		}
	}
}

func TestCompileAndInfer(t *testing.T) {
	m := testModel(2)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU(), Format: compiler.FormatBSPC})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(3, 10, 8)
	post := eng.Infer(frames)
	if len(post) != 10 {
		t.Fatalf("posterior count %d", len(post))
	}
	for _, row := range post {
		sum := 0.0
		for _, v := range row {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("posterior row sums to %v", sum)
		}
	}
	lat := eng.Latency()
	if lat.TotalUS <= 0 {
		t.Fatal("non-positive latency")
	}
	if eng.GOP() <= 0 || eng.GOPs() <= 0 {
		t.Fatal("non-positive GOP metrics")
	}
	if eng.EfficiencyVsESE() <= 0 {
		t.Fatal("non-positive efficiency")
	}
}

func TestCompileRequiresTarget(t *testing.T) {
	m := testModel(3)
	if _, err := Compile(m, PruneConfig{ColRate: 2, RowRate: 1}.Scheme(), DeployConfig{}); err == nil {
		t.Fatal("nil target accepted")
	}
}

func TestFP16QuantizationOnGPUPath(t *testing.T) {
	m := testModel(4)
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	_, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	// All surviving weights must be fp16-representable after GPU compile.
	for _, p := range m.Params() {
		for i, v := range p.W.Data {
			if v != tensor.RoundHalf(v) {
				t.Fatalf("%s[%d] = %v not fp16 after GPU deployment", p.Name, i, v)
			}
		}
	}
}

func TestCPUPathKeepsFP32(t *testing.T) {
	m := testModel(5)
	orig := m.Clone()
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	pruned := m.Clone()
	_, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	// CPU path must not quantize: weights unchanged from post-prune state.
	mp, pp := m.Params(), pruned.Params()
	for i := range mp {
		if !mp[i].W.Equal(pp[i].W) {
			t.Fatal("CPU deployment modified weights")
		}
	}
	_ = orig
}

// bigModel is large enough that per-frame work dominates the dispatch
// overhead floor (a tiny model is floor-bound on every target — the
// saturation regime of Figure 4 — so comparative latency tests need size).
func bigModel(seed uint64) *nn.Model {
	return nn.NewGRUModel(nn.ModelSpec{
		InputDim: 39, Hidden: 256, NumLayers: 2, OutputDim: 39, Seed: seed,
	})
}

func TestPrunedFasterThanDense(t *testing.T) {
	dense := bigModel(6)
	engDense, err := Compile(dense, PruneConfig{}.Scheme(), DeployConfig{
		Target: device.MobileGPU(), Format: compiler.FormatDense})
	if err != nil {
		t.Fatal(err)
	}
	pruned := bigModel(6)
	res := Prune(pruned, nil, PruneConfig{ColRate: 8, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	engPruned, err := Compile(pruned, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	if engPruned.Latency().TotalUS >= engDense.Latency().TotalUS {
		t.Fatalf("pruned (%v µs) not faster than dense (%v µs)",
			engPruned.Latency().TotalUS, engDense.Latency().TotalUS)
	}
}

func TestBSPCBeatsCSRLatency(t *testing.T) {
	// The compiler's whole point: BSPC with reorder+loadelim must beat CSR
	// on the same pruned weights.
	mCSR := bigModel(7)
	res := Prune(mCSR, nil, PruneConfig{ColRate: 8, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	engCSR, err := Compile(mCSR, res.Scheme, DeployConfig{
		Target: device.MobileGPU(), Format: compiler.FormatCSR,
		DisableReorder: true, DisableLoadElim: true})
	if err != nil {
		t.Fatal(err)
	}
	mB := bigModel(7)
	resB := Prune(mB, nil, PruneConfig{ColRate: 8, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	engB, err := Compile(mB, resB.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	if engB.Latency().TotalUS >= engCSR.Latency().TotalUS {
		t.Fatalf("BSPC (%v µs) not faster than CSR (%v µs)",
			engB.Latency().TotalUS, engCSR.Latency().TotalUS)
	}
}

func TestAutoTuneTilingCompiles(t *testing.T) {
	m := testModel(8)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileGPU(), AutoTuneTiling: true})
	if err != nil {
		t.Fatal(err)
	}
	tile := eng.Plan().Options.Tile
	if tile.RowTile == 0 || tile.ColTile == 0 || tile.Unroll == 0 {
		t.Fatalf("auto-tuned tile not set: %+v", tile)
	}
	// Auto-tuned latency must not be worse than the default tile.
	engDefault, err := Compile(testModelPruned(8), res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Latency().TotalUS > engDefault.Latency().TotalUS+1e-9 {
		t.Fatal("auto-tuning made latency worse")
	}
}

func testModelPruned(seed uint64) *nn.Model {
	m := testModel(seed)
	Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
	return m
}

func TestAutoTuneBlockSize(t *testing.T) {
	m := testModel(9)
	rg, cb, err := AutoTuneBlockSize(m, 4, 1, device.MobileGPU(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rg <= 0 || cb <= 0 {
		t.Fatalf("invalid grid %dx%d", rg, cb)
	}
}

func TestRealTimeFactor(t *testing.T) {
	m := testModel(10)
	res := Prune(m, nil, PruneConfig{ColRate: 8, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	rtf := eng.RealTimeFactor()
	if rtf <= 0 {
		t.Fatalf("real-time factor %v", rtf)
	}
	// 150 ms of audio per frame; frame latency is far below 150 ms for
	// this tiny model → must be beyond real time.
	if rtf < 1 {
		t.Fatalf("tiny pruned model not real-time: rtf=%v", rtf)
	}
}

func TestPruneWithTraining(t *testing.T) {
	m := nn.NewGRUModel(nn.ModelSpec{InputDim: 6, Hidden: 12, NumLayers: 1, OutputDim: 4, Seed: 11})
	rng := tensor.NewRNG(12)
	var data []nn.Sequence
	for u := 0; u < 3; u++ {
		frames := testFrames(uint64(20+u), 8, 6)
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		data = append(data, nn.Sequence{Frames: frames, Labels: labels})
	}
	cfg := PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2}
	cfg.ADMM.Iterations = 1
	cfg.ADMM.EpochsPerIter = 1
	cfg.ADMM.FinetuneEpochs = 1
	cfg.ADMM.Rho = 1e-3
	cfg.ADMM.LR = 1e-3
	cfg.ADMM.FinetuneLR = 1e-3
	res := Prune(m, data, cfg)
	if res.CompressionRate() <= 1 {
		t.Fatal("trained prune did not compress")
	}
}

func TestEngineReportConsistency(t *testing.T) {
	m := testModel(14)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Report()
	// device.frameAudioUS must equal TimestepsPerFrame × 10 ms: the duty
	// cycle and the real-time factor are reciprocal views of the same
	// quantity.
	if math.Abs(r.DutyCycle*eng.RealTimeFactor()-1) > 1e-9 {
		t.Fatalf("duty cycle %v and real-time factor %v not reciprocal — device.frameAudioUS out of sync with TimestepsPerFrame",
			r.DutyCycle, eng.RealTimeFactor())
	}
	if r.PerFrameUJ <= 0 {
		t.Fatal("non-positive energy")
	}
}

func TestElementwiseOpsCounts(t *testing.T) {
	m := testModel(13)
	ops := elementwiseOps(m)
	want := 2*12*32 + 3*6 // two GRU layers of hidden 32 + softmax(6)
	if ops != want {
		t.Fatalf("elementwiseOps %d, want %d", ops, want)
	}
}
