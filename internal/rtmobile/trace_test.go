package rtmobile

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/tensor"
)

// TestPlanPricesExecutedEvents is the whole-model version of the
// compiler's stats-vs-program check: for every matrix of a deployed engine,
// the plan prices the engine's own packed program cut into the target's
// thread chunks, lowering the caller's rounded weights again yields that
// very program and its stats, and the program run on real activations is
// tensor.MatVecAdd on the weights it holds, bit for bit — on float and
// quantized storage, BSPC and CSR alike. A float program holds the caller's
// rounded weights; a quantized one on this fp16 target holds their 16-bit
// values requantized, which stay close to them.
func TestPlanPricesExecutedEvents(t *testing.T) {
	for _, tc := range []struct {
		format compiler.Format
		quant  int
		// paper512 deploys the 2×512 paper-shaped GRU at BSP 10×1 instead of
		// the 2×256 one at 16×2: at 16 bits a weight rounds to zero only
		// rarely, so it takes the bigger model to see whether the plan
		// prices the rounded weights.
		paper512 bool
	}{
		{compiler.FormatBSPC, 0, false},
		{compiler.FormatBSPC, 8, false},
		{compiler.FormatBSPC, 12, false},
		{compiler.FormatBSPC, 16, true},
		{compiler.FormatCSR, 0, false},
		{compiler.FormatCSR, 8, false},
	} {
		t.Run(fmt.Sprintf("%s/q%d", tc.format, tc.quant), func(t *testing.T) {
			m := bigModel(95)
			pc := PruneConfig{ColRate: 16, RowRate: 2, RowGroups: 8, ColBlocks: 4}
			if tc.paper512 {
				spec := nn.PaperGRUSpec()
				spec.Hidden = 512
				m, pc = nn.NewModel(spec), PruneConfig{ColRate: 10, RowRate: 1}
			}
			res := Prune(m, nil, pc)
			eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU(), Format: tc.format, Quant: tc.quant})
			if err != nil {
				t.Fatal(err)
			}
			plan := eng.Plan()
			// The caller's model after Compile's rounding: what the programs
			// were lowered from.
			srcs := ModelSources(m, res.Scheme, tc.format)
			if len(srcs) != len(plan.Matrices) || len(eng.progs) != len(srcs) {
				t.Fatalf("%d sources vs %d plan matrices vs %d programs", len(srcs), len(plan.Matrices), len(eng.progs))
			}
			if !plan.Prices(eng.progs) {
				t.Fatal("the plan does not price the engine's programs")
			}
			rng := tensor.NewRNG(96)
			for i, src := range srcs {
				pp := eng.progs[i]
				again, stats, err := compiler.LowerMatrix(src, plan.Options, device.MobileGPU().Threads())
				if err != nil {
					t.Fatalf("%s: %v", src.Name, err)
				}
				if !reflect.DeepEqual(stats, plan.Matrices[i]) {
					t.Fatalf("%s: re-lowering prices %+v, plan priced %+v", src.Name, stats, plan.Matrices[i])
				}
				if !reflect.DeepEqual(again.Sections(), pp.Sections()) {
					t.Fatalf("%s: re-lowering the rounded weights changed the program", src.Name)
				}
				if got := pp.WeightBytes(); got != plan.Matrices[i].WeightBytes {
					t.Fatalf("%s: program stores %dB, plan priced %dB", src.Name, got, plan.Matrices[i].WeightBytes)
				}
				x := make([]float32, src.W.Cols)
				for j := range x {
					x[j] = float32(rng.NormFloat64())
				}
				held := pp.Dense()
				if tc.quant == 0 && !reflect.DeepEqual(held.Data, src.W.Data) {
					t.Fatalf("%s: the float program does not hold the rounded weights", src.Name)
				}
				y, want, near := make([]float32, src.W.Rows), make([]float32, src.W.Rows), make([]float32, src.W.Rows)
				if err := pp.RunAdd(y, x, nil); err != nil {
					t.Fatalf("%s: %v", src.Name, err)
				}
				tensor.MatVecAdd(want, held, x)
				tensor.MatVecAdd(near, src.W, x)
				for r := range y {
					if math.Float32bits(y[r]) != math.Float32bits(want[r]) {
						t.Fatalf("%s row %d: program %v vs tensor.MatVecAdd %v", src.Name, r, y[r], want[r])
					}
					if math.Abs(float64(y[r]-near[r])) > 1e-2 {
						t.Fatalf("%s row %d: program %v vs the rounded weights' %v", src.Name, r, y[r], near[r])
					}
				}
			}
		})
	}
}
