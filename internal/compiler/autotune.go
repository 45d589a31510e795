package compiler

import (
	"fmt"
	"sort"

	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// Auto-tuning (Section IV-B, final paragraph): an offline search over
// execution configurations — matrix tiling size, unrolling, and the BSP
// block grid — picking the configuration with the best predicted cost. The
// cost function is supplied by the caller (normally a device model's
// latency estimate), so the compiler stays independent of any particular
// target. What it shapes is the modelled mobile target's kernel: the host's
// packed executor takes no tile parameter, so there is nothing to tune by
// host timing (DESIGN.md, "Why the host executor has no unroll axis and no
// measured tuner"); a measured objective, should one be wanted, is a
// CostFunc handed to this search.

// CostFunc prices a candidate plan; lower is better.
type CostFunc func(*Plan) float64

// TuneSpace enumerates the candidate configurations.
type TuneSpace struct {
	RowTiles   []int
	ColTiles   []int
	Unrolls    []int
	Placements []Placement
	RowGroups  []int // BSP grid candidates (only used when tuning block size)
	ColBlocks  []int
}

// DefaultTuneSpace covers the configurations the paper's tuner explores:
// tiling size, unrolling size, and memory placement.
func DefaultTuneSpace() TuneSpace {
	return TuneSpace{
		RowTiles:   []int{8, 16, 32, 64},
		ColTiles:   []int{64, 128, 256, 512},
		Unrolls:    []int{1, 2, 4, 8},
		Placements: []Placement{PlaceShared, PlaceRegisters, PlaceGlobal},
		RowGroups:  []int{4, 8, 16, 32},
		ColBlocks:  []int{2, 4, 8, 16},
	}
}

// TuneResult reports the chosen configuration and its cost in costFn's
// units.
type TuneResult struct {
	Tile      TileConfig
	Cost      float64
	Evaluated int
}

// TuneTiling prices the plan under each tile/unroll/placement candidate and
// returns the cheapest TileConfig under costFn. The tile shapes only the
// modelled target's kernel, not the lowering, so every candidate is a copy
// of the one plan with its Options.Tile replaced — a candidate costs one
// pricing, never a recompile. Deterministic: ties keep the earliest
// candidate.
func TuneTiling(plan *Plan, space TuneSpace, costFn CostFunc) (TuneResult, error) {
	placements := space.Placements
	if len(placements) == 0 {
		placements = []Placement{PlaceShared}
	}
	best := TuneResult{Cost: -1}
	cand := *plan
	for _, rt := range space.RowTiles {
		for _, ct := range space.ColTiles {
			for _, un := range space.Unrolls {
				for _, pl := range placements {
					cand.Options.Tile = TileConfig{RowTile: rt, ColTile: ct, Unroll: un, Placement: pl}
					c := costFn(&cand)
					best.Evaluated++
					if best.Cost < 0 || c < best.Cost {
						best.Cost = c
						best.Tile = cand.Options.Tile
					}
				}
			}
		}
	}
	if best.Cost < 0 {
		return TuneResult{}, fmt.Errorf("compiler: empty tuning space")
	}
	return best, nil
}

// BlockSizeResult is one evaluated BSP grid configuration.
type BlockSizeResult struct {
	RowGroups, ColBlocks int
	Cost                 float64
	RetainedEnergy       float64 // fraction of weight Frobenius energy kept
	Score                float64 // combined objective (lower is better)
}

// TuneBlockSize searches the BSP block grid for the best combination of
// predicted performance and accuracy proxy, as the paper's tuner does
// ("we employ it to find the best block size that results in an optimal
// combination of accuracy and performance"). The accuracy proxy is the
// retained Frobenius energy of the projected weights — cheap, monotone
// with post-finetune accuracy at fixed rates.
//
// Score = cost/minCost + accuracyWeight·(1 − retainedEnergy/maxEnergy).
func TuneBlockSize(w *tensor.Matrix, colRate, rowRate float64, threads int, space TuneSpace, accuracyWeight float64, costFn CostFunc) ([]BlockSizeResult, BlockSizeResult, error) {
	if len(space.RowGroups) == 0 || len(space.ColBlocks) == 0 {
		return nil, BlockSizeResult{}, fmt.Errorf("compiler: empty block-size space")
	}
	var results []BlockSizeResult
	totalEnergy := w.FrobNorm()
	for _, rg := range space.RowGroups {
		for _, cb := range space.ColBlocks {
			scheme := prune.BSP{ColRate: colRate, RowRate: rowRate, NumRowGroups: rg, NumColBlocks: cb}
			projected := scheme.Project(w)
			src := MatrixSource{Name: "tune", W: projected, Scheme: &scheme}
			plan, _, err := CompilePlan("tune", []MatrixSource{src},
				DefaultOptions(FormatBSPC, 16), threads, 1, 0)
			if err != nil {
				return nil, BlockSizeResult{}, err
			}
			retained := 0.0
			if totalEnergy > 0 {
				retained = projected.FrobNorm() / totalEnergy
			}
			results = append(results, BlockSizeResult{
				RowGroups: rg, ColBlocks: cb,
				Cost: costFn(plan), RetainedEnergy: retained,
			})
		}
	}
	scoreBlockSizeResults(results, accuracyWeight)
	return results, results[0], nil
}

// scoreBlockSizeResults computes each candidate's combined objective and
// sorts best-first.
func scoreBlockSizeResults(results []BlockSizeResult, accuracyWeight float64) {
	minCost := results[0].Cost
	maxEnergy := results[0].RetainedEnergy
	for _, r := range results[1:] {
		if r.Cost < minCost {
			minCost = r.Cost
		}
		if r.RetainedEnergy > maxEnergy {
			maxEnergy = r.RetainedEnergy
		}
	}
	for i := range results {
		perf := 0.0
		if minCost > 0 {
			perf = results[i].Cost/minCost - 1
		}
		acc := 0.0
		if maxEnergy > 0 {
			acc = 1 - results[i].RetainedEnergy/maxEnergy
		}
		results[i].Score = perf + accuracyWeight*acc
	}
	sort.SliceStable(results, func(a, b int) bool { return results[a].Score < results[b].Score })
}
