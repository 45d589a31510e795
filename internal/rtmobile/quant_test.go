package rtmobile

import (
	"bytes"
	"math"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/quant"
)

// quantEngine deploys a small pruned model with integer weight
// quantization at the given width on the fp32 CPU target (so quantized
// values survive exactly, making round-trips bit-checkable).
func quantEngine(t *testing.T, bits int) *Engine {
	t.Helper()
	m := testModel(51)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: bits})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestCompileQuantRejectsBadBits(t *testing.T) {
	m := testModel(52)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	for _, bits := range []int{1, 4, 7, 9, 32} {
		if _, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: bits}); err == nil {
			t.Fatalf("Quant=%d accepted", bits)
		}
	}
}

// TestCompileQuantRoundTripsWeights: every weight matrix of a quantized
// engine holds exactly per-row dequantized values (requantizing changes
// nothing), and the plan prices the quantized storage.
func TestCompileQuantRoundTripsWeights(t *testing.T) {
	for _, bits := range []int{8, 12, 16} {
		eng := quantEngine(t, bits)
		if got := eng.Quantized(); got != bits {
			t.Fatalf("Quantized() = %d, want %d", got, bits)
		}
		if eng.Plan().Options.QuantBits != bits {
			t.Fatalf("plan QuantBits %d, want %d", eng.Plan().Options.QuantBits, bits)
		}
		for _, p := range eng.denseModel().WeightMatrices() {
			qm, err := quant.Quantize(p.W, bits, quant.PerRow)
			if err != nil {
				t.Fatal(err)
			}
			d := qm.Dequantize()
			for i := range p.W.Data {
				if p.W.Data[i] != d.Data[i] {
					t.Fatalf("bits=%d %s[%d]: %v not a fixed point of requantization (%v)",
						bits, p.Name, i, p.W.Data[i], d.Data[i])
				}
			}
		}
	}
}

// TestQuantPlanFootprintShrinks: the priced weight stream of an 8-bit
// deployment is ~1/4 of the fp32 CPU deployment's.
func TestQuantPlanFootprintShrinks(t *testing.T) {
	m := testModel(53)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	f32, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	q8, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	var fW, qW int
	for _, ms := range f32.Plan().Matrices {
		fW += ms.WeightBytes
	}
	for _, ms := range q8.Plan().Matrices {
		qW += ms.WeightBytes
	}
	ratio := float64(fW) / float64(qW)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("f32/q8 weight-byte ratio %.2f (f32=%d q8=%d), want ≈4", ratio, fW, qW)
	}
}

// TestQuantBundleV3RoundTrip: a quantized fp32 deployment survives
// save/map bit-exactly (the stored integers dequantize to the engine's
// round-tripped weights).
func TestQuantBundleV3RoundTrip(t *testing.T) {
	for _, bits := range []int{8, 12, 16} {
		m := testModel(55)
		res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
		eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: bits})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
			t.Fatal(err)
		}
		mb, err := mapImage(t, buf.Bytes(), device.MobileCPU())
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		loaded := mb.Engine()
		if mb.Scheme().ColRate != 4 {
			t.Fatalf("scheme lost: %+v", mb.Scheme())
		}
		if got := loaded.Quantized(); got != bits {
			t.Fatalf("loaded engine quantized at %d bits, want %d", got, bits)
		}
		reloaded := loaded.denseModel().Params()
		for i, p := range eng.denseModel().Params() {
			lp := reloaded[i]
			for j := range p.W.Data {
				if p.W.Data[j] != lp.W.Data[j] {
					t.Fatalf("bits=%d %s[%d]: %v reloaded as %v",
						bits, p.Name, j, p.W.Data[j], lp.W.Data[j])
				}
			}
		}
		frames := testFrames(56, 10, 8)
		a, b := eng.Infer(frames), loaded.Infer(frames)
		for t2 := range a {
			for j := range a[t2] {
				if a[t2][j] != b[t2][j] {
					t.Fatalf("bits=%d posterior (%d,%d): %v vs %v", bits, t2, j, a[t2][j], b[t2][j])
				}
			}
		}
	}
}

// TestQuantBundleSmaller: at the same (dense) storage format, the 8-bit
// bundle is well under half the float bundle — program codes at 1 byte per
// element vs float32 values at 4.
func TestQuantBundleSmaller(t *testing.T) {
	m := testModel(57)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	var fbuf, qbuf bytes.Buffer
	feng, err := Compile(m.Clone(), res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Format: compiler.FormatDense})
	if err != nil {
		t.Fatal(err)
	}
	if err := feng.SaveBundle(&fbuf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	qeng, err := Compile(m.Clone(), res.Scheme, DeployConfig{
		Target: device.MobileCPU(), Format: compiler.FormatDense, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := qeng.SaveBundle(&qbuf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	if 2*qbuf.Len() >= fbuf.Len() {
		t.Fatalf("8-bit bundle %d bytes not well under half the float bundle's %d",
			qbuf.Len(), fbuf.Len())
	}
}

// TestQuantAccuracyReasonable: 16-bit weight quantization barely moves
// posteriors vs the float deployment on the fp32 path.
func TestQuantAccuracyReasonable(t *testing.T) {
	m := testModel(58)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	feng, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	qeng, err := Compile(m.Clone(), res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: 16})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(59, 12, 8)
	a, b := feng.Infer(frames), qeng.Infer(frames)
	worst := 0.0
	for t2 := range a {
		for j := range a[t2] {
			if e := math.Abs(float64(a[t2][j] - b[t2][j])); e > worst {
				worst = e
			}
		}
	}
	if worst > 1e-2 {
		t.Fatalf("16-bit posteriors off by %v, want < 1e-2", worst)
	}
}

// TestQuantStreamStepIntoZeroAlloc extends the real-time allocation gate
// to quantized deployments: a warm stream advances frames with zero heap
// allocations at every quantization width.
func TestQuantStreamStepIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	for _, bits := range []int{8, 12, 16} {
		eng := quantEngine(t, bits)
		s := eng.NewStream()
		frame := testFrames(60, 1, 8)[0]
		dst := make([]float32, eng.OutputDim())
		s.StepInto(dst, frame)
		if allocs := testing.AllocsPerRun(100, func() {
			s.StepInto(dst, frame)
		}); allocs != 0 {
			t.Fatalf("bits=%d: StepInto allocates %v times per frame, want 0", bits, allocs)
		}
	}
}

// TestQuantInferBatchIntoZeroSteadyAlloc extends the batched-serving gate:
// after arena warm-up, InferBatchInto on a quantized deployment allocates
// nothing per request.
func TestQuantInferBatchIntoZeroSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	eng := quantEngine(t, 8)
	batch := make([][][]float32, 4)
	out := make([][][]float32, len(batch))
	for i := range batch {
		batch[i] = testFrames(uint64(61+i), 9, 8)
		rows := make([][]float32, len(batch[i]))
		flat := make([]float32, len(batch[i])*eng.OutputDim())
		for t2 := range rows {
			rows[t2] = flat[t2*eng.OutputDim() : (t2+1)*eng.OutputDim()]
		}
		out[i] = rows
	}
	eng.InferBatchInto(out, batch) // warm the arena free list
	if allocs := testing.AllocsPerRun(20, func() {
		eng.InferBatchInto(out, batch)
	}); allocs != 0 {
		t.Fatalf("quantized InferBatchInto allocates %v times per request, want 0", allocs)
	}
}
