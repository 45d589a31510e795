package compiler

import (
	"fmt"
	"math"
	"time"

	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/tensor"
)

// Measured auto-tuning. The analytic CostFunc path prices a Plan with a
// device model; the functions here instead time the packed backend
// actually executing the lowered programs on the host, giving the tuner a
// ground-truth nanoseconds objective. Results are cached in the model
// bundle (see internal/rtmobile's plan cache) so deployment never
// re-measures.

// MeasurePackedNs compiles every source, lowers it through the packed
// backend at opt.Tile.Unroll (integer storage when opt.QuantBits is
// 8/12/16), and returns the best-of-reps wall time in nanoseconds for one
// serial pass over all matrices (the per-timestep GEMV work of a model).
// Inputs are deterministic; minimum-of-reps is the standard noise filter
// for microbenchmarks.
func MeasurePackedNs(srcs []MatrixSource, opt Options, threads, reps int) (float64, error) {
	if len(srcs) == 0 {
		return 0, fmt.Errorf("compiler: no sources to measure")
	}
	if reps <= 0 {
		reps = 8
	}
	type unit struct {
		pp   *PackedProgram
		x, y []float32
		s    *PackedScratch
	}
	rng := tensor.NewRNG(0xA11C)
	units := make([]unit, 0, len(srcs))
	for _, src := range srcs {
		prog, err := CompileProgram(src, opt, threads)
		if err != nil {
			return 0, err
		}
		pp, err := PackQuant(prog, opt.QuantBits, quant.PerRow, opt.Tile.Unroll)
		if err != nil {
			return 0, err
		}
		u := unit{
			pp: pp,
			x:  make([]float32, prog.Cols),
			y:  make([]float32, prog.Rows),
			s:  pp.NewScratch(),
		}
		for i := range u.x {
			u.x[i] = float32(rng.NormFloat64())
		}
		units = append(units, u)
	}
	pass := func() error {
		for i := range units {
			if err := units[i].pp.Run(units[i].y, units[i].x, units[i].s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil { // warm caches and scratch
		return 0, err
	}
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best, nil
}

// MeasureEpilogueNs times one fused GRU gate-epilogue pass (σ/σ/tanh
// blend over a hidden-sized state, see tensor.GRUEpilogue) on the given
// kernel tier, returning best-of-reps wall nanoseconds. This is the
// elementwise cost a timestep pays after its GEMVs; the measured tuner
// adds it to each candidate's objective so the fast-vs-exact verdict
// prices the whole step, not just the matrix work.
func MeasureEpilogueNs(hidden int, prec Precision, reps int) (float64, error) {
	if hidden <= 0 {
		return 0, fmt.Errorf("compiler: non-positive epilogue width %d", hidden)
	}
	if reps <= 0 {
		reps = 8
	}
	ep := tensor.GRUEpilogue
	if prec == PrecisionFast {
		ep = tensor.GRUEpilogueFast
	}
	rng := tensor.NewRNG(0xEB10)
	h := make([]float32, hidden)
	ax := make([]float32, 3*hidden)
	ah := make([]float32, 3*hidden)
	for i := range ax {
		ax[i] = float32(rng.NormFloat64())
		ah[i] = float32(rng.NormFloat64())
	}
	ep(h, ax, ah) // warm caches (h stays in (−1,1): gates are contractive)
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		ep(h, ax, ah)
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best, nil
}

// TuneTilingMeasured is TuneTiling with the measured-nanoseconds
// objective. Only the unroll factor is searched on the exact tier:
// row/column tile sizes and memory placement parameterize the analytic
// device model but do not change what the host's packed backend executes,
// so measuring them would only add noise. When the caller deploys the
// fast tier (opt.Precision == PrecisionFast), one fast-tier candidate
// joins the exact-tier unroll sweep as a first-class competitor — the
// fast kernels fix their own vector shape, so the unroll axis collapses —
// and the winner's tier is recorded in TuneResult.Precision. An
// exact-tier caller never sees fast candidates (the tuner must not relax
// precision on its own). Deterministic apart from timer noise, which
// minimum-of-reps suppresses.
func TuneTilingMeasured(srcs []MatrixSource, opt Options, threads int, space TuneSpace, reps int) (TuneResult, error) {
	unrolls := space.Unrolls
	if len(unrolls) == 0 {
		unrolls = []int{1, 2, 4, 8}
	}
	type candidate struct {
		prec   Precision
		unroll int
	}
	var cands []candidate
	for _, un := range unrolls {
		cands = append(cands, candidate{PrecisionExact, un})
	}
	if opt.Precision == PrecisionFast {
		cands = append(cands, candidate{PrecisionFast, DefaultUnroll})
	}
	// A candidate's full-step cost is its GEMV pass plus the per-tier gate
	// epilogue (constant across unrolls, so measure each tier once). With
	// no EpilogueHidden the objective degrades to GEMV-only, the pre-fusion
	// behavior.
	epNs := map[Precision]float64{}
	if space.EpilogueHidden > 0 {
		for _, prec := range []Precision{PrecisionExact, PrecisionFast} {
			ns, err := MeasureEpilogueNs(space.EpilogueHidden, prec, reps)
			if err != nil {
				return TuneResult{}, err
			}
			epNs[prec] = ns
		}
	}
	best := TuneResult{Cost: -1}
	for _, c := range cands {
		o := opt
		if o.Tile == (TileConfig{}) {
			o.Tile = DefaultTile()
		}
		o.Tile.Unroll = c.unroll
		o.Precision = c.prec
		ns, err := MeasurePackedNs(srcs, o, threads, reps)
		if err != nil {
			return TuneResult{}, err
		}
		ns += epNs[c.prec]
		best.Evaluated++
		if best.Cost < 0 || ns < best.Cost {
			best.Cost = ns
			best.Tile = o.Tile
			best.Precision = c.prec
		}
	}
	if best.Cost < 0 {
		return TuneResult{}, fmt.Errorf("compiler: empty tuning space")
	}
	best.Measured = true
	return best, nil
}

// TuneBlockSizeMeasured is TuneBlockSize with the measured-nanoseconds
// objective: each candidate BSP grid is projected, compiled, packed, and
// timed on the host instead of priced by a device model. Scoring and
// ordering are shared with the analytic variant.
func TuneBlockSizeMeasured(w *tensor.Matrix, colRate, rowRate float64, threads int, space TuneSpace, accuracyWeight float64, reps int) ([]BlockSizeResult, BlockSizeResult, error) {
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
			ns, err := MeasurePackedNs([]MatrixSource{src},
				DefaultOptions(FormatBSPC, 16), threads, reps)
			if err != nil {
				return nil, BlockSizeResult{}, err
			}
			retained := 0.0
			if totalEnergy > 0 {
				retained = projected.FrobNorm() / totalEnergy
			}
			results = append(results, BlockSizeResult{
				RowGroups: rg, ColBlocks: cb,
				Cost: ns, RetainedEnergy: retained,
			})
		}
	}
	scoreBlockSizeResults(results, accuracyWeight)
	return results, results[0], nil
}
