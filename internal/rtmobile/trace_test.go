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
// compiler's stats-vs-execution check: for every matrix of a deployed
// engine, every counted field of the plan equals the engine's own packed
// program's static counts, and the interpreter program lowered from the
// same weights, run on real activations, produces exactly those events —
// on float and quantized storage, BSPC and CSR alike.
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
			rng := tensor.NewRNG(96)
			for i, src := range srcs {
				stats := &plan.Matrices[i]
				pp := eng.progs[i]
				ps := pp.Stats()
				if !reflect.DeepEqual(ps.ThreadMACs, stats.ThreadMACs) {
					t.Fatalf("%s: program runs %v MACs per thread, plan priced %v", src.Name, ps.ThreadMACs, stats.ThreadMACs)
				}
				if ps.GatherLoads != stats.GatherLoads {
					t.Fatalf("%s: program gathers %d, plan priced %d", src.Name, ps.GatherLoads, stats.GatherLoads)
				}
				if got := pp.TotalMACs() - ps.GatherLoads; got != stats.EliminatedLoads {
					t.Fatalf("%s: program eliminated %d loads, plan priced %d", src.Name, got, stats.EliminatedLoads)
				}
				if got := pp.WeightBytes(); got != stats.WeightBytes {
					t.Fatalf("%s: program stores %dB, plan priced %dB", src.Name, got, stats.WeightBytes)
				}

				prog, err := compiler.CompileProgram(src, plan.Options, device.MobileGPU().Threads())
				if err != nil {
					t.Fatalf("%s: %v", src.Name, err)
				}
				x := make([]float32, src.W.Cols)
				for j := range x {
					x[j] = float32(rng.NormFloat64())
				}
				y := make([]float32, src.W.Rows)
				exec, err := prog.Execute(y, x)
				if err != nil {
					t.Fatalf("%s: %v", src.Name, err)
				}
				if exec.GatherLoads != stats.GatherLoads {
					t.Fatalf("%s: executed %d gathers, plan priced %d",
						src.Name, exec.GatherLoads, stats.GatherLoads)
				}
				if !reflect.DeepEqual(exec.ThreadMACs, stats.ThreadMACs) {
					t.Fatalf("%s: executed %v MACs per thread, plan priced %v",
						src.Name, exec.ThreadMACs, stats.ThreadMACs)
				}
				if tc.quant == 0 {
					if got, want := (exec.StreamedVals*plan.Options.ValueBits+7)/8, stats.WeightBytes; got != want {
						t.Fatalf("%s: streamed %dB, plan priced %dB", src.Name, got, want)
					}
				}
				// And the program computes the true product.
				want := make([]float32, src.W.Rows)
				tensor.MatVec(want, src.W, x)
				for r := range y {
					if math.Abs(float64(y[r]-want[r])) > 1e-2 {
						t.Fatalf("%s row %d: exec %v vs dense %v", src.Name, r, y[r], want[r])
					}
				}
			}
		})
	}
}
