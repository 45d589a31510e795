// Auto-tuning walk-through: the offline search RTMobile's compiler runs
// before deployment (Section IV-B). Shows (1) the BSP block-grid search
// balancing predicted latency against a retained-energy accuracy proxy,
// and (2) the tiling/unroll search for the chosen grid. Both searches shape
// and price the modelled mobile target's kernel (internal/device); the
// host's packed executor runs the same kernels whatever they choose.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/tensor"
)

func main() {
	target := device.MobileGPU()
	const colRate, rowRate = 16, 2

	// 1. Block-grid search on a GRU-layer-sized matrix.
	w := tensor.NewMatrix(768, 256)
	w.RandNormal(tensor.NewRNG(1), 1)
	results, best, err := compiler.TuneBlockSize(
		w, colRate, rowRate, target.Threads(),
		compiler.DefaultTuneSpace(), 1.0, target.CostFunc())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block-grid search at col %g / row %g on %dx%d (%d candidates):\n",
		float64(colRate), float64(rowRate), w.Rows, w.Cols, len(results))
	fmt.Printf("%10s %10s %12s %14s %8s\n", "row groups", "col blocks", "latency (us)", "energy kept", "score")
	for i, r := range results {
		marker := " "
		if r == best {
			marker = "*"
		}
		fmt.Printf("%10d %10d %12.2f %13.1f%% %8.3f %s\n",
			r.RowGroups, r.ColBlocks, r.Cost, 100*r.RetainedEnergy, r.Score, marker)
		if i == 7 {
			fmt.Printf("%10s (remaining %d candidates elided)\n", "...", len(results)-8)
			break
		}
	}
	fmt.Printf("chosen grid: %d x %d\n\n", best.RowGroups, best.ColBlocks)

	// 2. Tiling search for a full model deployment on the chosen grid.
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 256, NumLayers: 2, OutputDim: 39, Seed: 2})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: colRate, RowRate: rowRate,
		RowGroups: best.RowGroups, ColBlocks: best.ColBlocks,
	})

	untuned, err := rtmobile.Compile(model.Clone(), res.Scheme,
		rtmobile.DeployConfig{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := rtmobile.Compile(model.Clone(), res.Scheme,
		rtmobile.DeployConfig{Target: target, AutoTuneTiling: true})
	if err != nil {
		log.Fatal(err)
	}
	dt := untuned.Plan().Options.Tile
	tt := tuned.Plan().Options.Tile
	fmt.Printf("tiling search (the modelled %s kernel's tile):\n", target.Name)
	fmt.Printf("  default tile  rows %3d x cols %3d, unroll %d -> %.2f us/frame\n",
		dt.RowTile, dt.ColTile, dt.Unroll, untuned.Latency().TotalUS)
	fmt.Printf("  tuned tile    rows %3d x cols %3d, unroll %d -> %.2f us/frame\n",
		tt.RowTile, tt.ColTile, tt.Unroll, tuned.Latency().TotalUS)
	fmt.Printf("  improvement: %.1f%%\n",
		100*(1-tuned.Latency().TotalUS/untuned.Latency().TotalUS))
}
