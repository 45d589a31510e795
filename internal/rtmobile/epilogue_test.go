package rtmobile

import (
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/obs"
)

// TestEngineEpilogueSpans: a traced engine's streams record one
// StageEpilogue execution per GRU layer per step, so run -stats//statz can
// split layer time into matmul vs epilogue; every program's executions land
// under StageKernel.
func TestEngineEpilogueSpans(t *testing.T) {
	m := testModel(71)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU()})
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
		t.Fatalf("%d epilogue spans, want %d", count, want)
	}
	_, layerNs := tr.KindTotal(obs.StageLayer)
	if ns > layerNs {
		t.Fatalf("epilogue %d ns exceeds layer %d ns", ns, layerNs)
	}
	want := uint64(steps * len(eng.Plan().Matrices))
	if n, _ := tr.KindTotal(obs.StageKernel); n != want {
		t.Fatalf("%d kernel executions, want %d", n, want)
	}
}
