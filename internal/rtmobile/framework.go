// Package rtmobile is the top-level framework of the reproduction — the
// public API a downstream user drives. It wires the substrates together
// exactly as Figure 3 of the paper draws the system: a trained GRU model
// enters, Block-based Structured Pruning with ADMM compresses it, the
// compiler passes (matrix reorder, redundant-load elimination, BSPC
// selection, auto-tuning) lower it for a mobile target, and an Engine
// performs functional inference while the target's cost model reports
// per-frame latency, throughput, and energy.
//
// Typical use:
//
//	model := nn.NewGRUModel(nn.ModelSpec{...})
//	model.Train(data, nn.NewAdam(1e-3), nn.TrainConfig{Epochs: 20})
//	res := rtmobile.Prune(model, data, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
//	eng, _ := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()})
//	posteriors := eng.Infer(utterance)
//	lat := eng.Latency()
package rtmobile

import (
	"fmt"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
)

// TimestepsPerFrame defines one Table II "inference frame" as 30 GRU
// timesteps (a 300 ms speech chunk at the 10 ms frame hop). The constant is
// the single calibration tying our GOP accounting to the paper's: with it,
// the dense 9.6M-parameter model costs 2 ops × 9.6M MACs × 30 = 0.576
// GOP/frame, matching Table II's 0.58 GOP dense row.
const TimestepsPerFrame = 30

// PruneConfig selects the BSP operating point.
type PruneConfig struct {
	// ColRate and RowRate are the two compression axes of Table I.
	ColRate, RowRate float64
	// RowGroups × ColBlocks is the block grid (0 = package defaults; the
	// auto-tuner can search these, see AutoTuneBlockSize).
	RowGroups, ColBlocks int
	// ADMM controls the training schedule; zero value uses defaults.
	ADMM prune.ADMMConfig
}

// PruneResult augments the prune.Result with the concrete scheme used.
type PruneResult struct {
	prune.Result
	Scheme prune.BSP
}

// Scheme materializes the BSP scheme from the config.
func (c PruneConfig) Scheme() prune.BSP {
	return prune.BSP{
		ColRate: c.ColRate, RowRate: c.RowRate,
		NumRowGroups: c.RowGroups, NumColBlocks: c.ColBlocks,
	}
}

// Prune applies BSP with ADMM training to the model in place and returns
// the compression result. data supplies the W-update training set; pass
// nil to project without training (one-shot pruning, used for
// performance-only experiments).
func Prune(model *nn.Model, data []nn.Sequence, cfg PruneConfig) PruneResult {
	s := cfg.Scheme()
	assign := prune.UniformAssignment(model, s)
	var res prune.Result
	if len(data) == 0 {
		res = prune.ProjectOnly(model, assign)
	} else {
		admm := cfg.ADMM
		if admm.Iterations == 0 {
			admm = prune.DefaultADMMConfig()
		}
		res = prune.Run(model, data, assign, admm)
	}
	return PruneResult{Result: res, Scheme: s}
}

// DeployConfig selects the target and the compiler passes.
type DeployConfig struct {
	Target *device.Target
	// Format defaults to BSPC; set compiler.FormatCSR/FormatDense for
	// ablations.
	Format compiler.Format
	// DisableReorder / DisableLoadElim turn individual passes off
	// (ablation switches; both passes default on, as in the paper).
	DisableReorder  bool
	DisableLoadElim bool
	// AutoTuneTiling runs the offline tiling search over the target's
	// analytic cost model before deployment. The chosen plan is recorded on
	// the engine and persisted in bundles, so serving never tunes; a
	// re-deploy of the bundle (ReadBundle) runs the search again.
	AutoTuneTiling bool
	// Tile overrides the tile configuration when AutoTuneTiling is off.
	// Like the search's result it parameterizes the modelled target's
	// kernel — what the plan prices and the bundle records — never what the
	// host's packed executor runs.
	Tile compiler.TileConfig
	// Quant selects integer weight quantization for deployment: 0 keeps
	// float weights (fp16/fp32 per target); 8, 12, or 16 round-trips every
	// prunable weight matrix through symmetric per-row quantization
	// (internal/quant) and makes the compiled plan price the quantized
	// packed backend's storage (compiler.Options.QuantBits).
	Quant int
}

// valueBits selects numeric width per target: the paper's GPU path runs
// fp16, the CPU path fp32.
func valueBits(t *device.Target) int {
	if t.NumThreads >= 32 {
		return 16
	}
	return 32
}

// Compile lowers a (pruned) model for the target and returns a ready
// Engine. The scheme must be the one the model was pruned with when Format
// is BSPC (it defines the block grid the format and the load-elimination
// pass read). The model's weights are rounded in place to the deployment's
// widths, so nn.Forward on it stays the engine's reference; the engine
// keeps no reference to the model, and later changes to it do not reach
// the engine.
func Compile(model *nn.Model, scheme prune.BSP, cfg DeployConfig) (*Engine, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("rtmobile: DeployConfig.Target is required")
	}
	if cfg.Quant != 0 && !compiler.QuantBitsValid(cfg.Quant) {
		return nil, fmt.Errorf("rtmobile: unsupported quantization width %d bits (want 8, 12, or 16)", cfg.Quant)
	}
	if cfg.Format == compiler.FormatAuto {
		cfg.Format = compiler.FormatBSPC
	}
	opt := compiler.Options{
		Format:                  cfg.Format,
		Reorder:                 !cfg.DisableReorder,
		EliminateRedundantLoads: !cfg.DisableLoadElim,
		Tile:                    cfg.Tile,
		ValueBits:               valueBits(cfg.Target),
		QuantBits:               cfg.Quant,
	}
	if opt.Tile == (compiler.TileConfig{}) {
		opt.Tile = compiler.DefaultTile()
	}
	// Round first, then lower once: the programs execute exactly the
	// weights nn.Forward reads from the caller's model, and the plan is
	// counted off those programs.
	fp16 := opt.ValueBits == 16
	if err := roundWeights(model, cfg.Quant, fp16); err != nil {
		return nil, err
	}
	plan, progs, err := compiler.CompilePlan(model.Spec.String(),
		ModelSources(model, scheme, opt.Format), opt,
		cfg.Target.Threads(), TimestepsPerFrame, elementwiseOps(model))
	if err != nil {
		return nil, err
	}
	var tuned TuneRecord
	if cfg.AutoTuneTiling {
		res, err := compiler.TuneTiling(plan, compiler.DefaultTuneSpace(), cfg.Target.CostFunc())
		if err != nil {
			return nil, err
		}
		plan.Options.Tile = res.Tile
		tuned = TuneRecord{Mode: TuneAnalytic, Cost: res.Cost}
	}
	return &Engine{shell: shellOf(model, progs), progs: progs,
		plan: plan, target: cfg.Target, pool: parallel.Default(),
		fp16: fp16, tuned: tuned,
		quant:     cfg.Quant,
		stepMACs:  stepPricedMACs(plan),
		stepBytes: uint64(plan.WeightBytes())}, nil
}

// ModelSources extracts the compiler inputs from a model's prunable weight
// matrices. The scheme pointer is attached only for BSPC (dense/CSR ignore
// it).
func ModelSources(model *nn.Model, scheme prune.BSP, format compiler.Format) []compiler.MatrixSource {
	var srcs []compiler.MatrixSource
	for _, p := range model.WeightMatrices() {
		src := compiler.MatrixSource{Name: p.Name, W: p.W}
		if format == compiler.FormatBSPC {
			s := scheme
			src.Scheme = &s
		}
		srcs = append(srcs, src)
	}
	return srcs
}

// elementwiseOps estimates the per-timestep non-GEMV arithmetic of the
// model: the GRU gate nonlinearities and blends (≈12 ops per hidden unit
// per layer) plus the output softmax.
func elementwiseOps(model *nn.Model) int {
	ops := 0
	for _, l := range model.Layers {
		if g, ok := l.(*nn.GRU); ok {
			ops += 12 * g.Hidden
		}
	}
	ops += 3 * model.Spec.OutputDim
	return ops
}

// AutoTuneBlockSize searches the BSP block grid for a weight matrix shaped
// like the model's largest projection, combining predicted latency with the
// retained-energy accuracy proxy (Section IV-B auto-tuning). It returns the
// chosen grid.
func AutoTuneBlockSize(model *nn.Model, colRate, rowRate float64, target *device.Target, accuracyWeight float64) (rowGroups, colBlocks int, err error) {
	mats := model.WeightMatrices()
	if len(mats) == 0 {
		return 0, 0, fmt.Errorf("rtmobile: model has no prunable matrices")
	}
	// Tune on the largest matrix (dominates both cost and accuracy).
	largest := mats[0]
	for _, p := range mats[1:] {
		if p.NumEl() > largest.NumEl() {
			largest = p
		}
	}
	_, best, err := compiler.TuneBlockSize(largest.W, colRate, rowRate,
		target.Threads(), compiler.DefaultTuneSpace(), accuracyWeight, target.CostFunc())
	if err != nil {
		return 0, 0, err
	}
	return best.RowGroups, best.ColBlocks, nil
}
