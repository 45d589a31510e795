package bench

import (
	"fmt"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// Helpers the top-level kernel benchmarks and the load generator share: the
// Table-I-sized sweep program, the repetition count and percentiles.

// WorkerSweepConfig sizes the sweep program.
type WorkerSweepConfig struct {
	// Hidden sizes the GRU projection: the program multiplies the
	// [3*Hidden × Hidden] recurrent matrix (the paper's 1024 → 3072×1024).
	Hidden int
	// ColRate/RowRate prune the matrix before compilation (Table I's axes).
	ColRate, RowRate float64
	// Format of the compiled kernel (default BSPC).
	Format compiler.Format
}

// DefaultWorkerSweepConfig measures the paper-scale layer (3072×1024 at
// 16× column / 2× row compression).
func DefaultWorkerSweepConfig() WorkerSweepConfig {
	return WorkerSweepConfig{
		Hidden: 1024, ColRate: 16, RowRate: 2,
		Format: compiler.FormatBSPC,
	}
}

// BuildSweepProgram compiles the sweep's kernel program: a BSP-pruned
// [3H × H] projection lowered at the configured format. Exposed for the
// top-level Go benchmarks, which time it under b.N.
func BuildSweepProgram(cfg WorkerSweepConfig) (*compiler.PackedProgram, []float32, error) {
	if cfg.Hidden <= 0 {
		return nil, nil, fmt.Errorf("bench: worker sweep needs Hidden > 0")
	}
	rows, cols := 3*cfg.Hidden, cfg.Hidden
	w := tensor.NewMatrix(rows, cols)
	w.XavierInit(tensor.NewRNG(17), cols, rows)
	scheme := prune.BSP{
		ColRate: cfg.ColRate, RowRate: cfg.RowRate,
		NumRowGroups: 8, NumColBlocks: 4,
	}
	if cfg.Format != compiler.FormatDense && cfg.ColRate >= 1 {
		w = scheme.Project(w)
	}
	src := compiler.MatrixSource{Name: "gru.Wh", W: w}
	if cfg.Format == compiler.FormatBSPC {
		src.Scheme = &scheme
	}
	prog, _, err := compiler.LowerMatrix(src, compiler.DefaultOptions(cfg.Format, 32), 1)
	if err != nil {
		return nil, nil, err
	}
	x := make([]float32, cols)
	rng := tensor.NewRNG(23)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return prog, x, nil
}

// benchRowReps is how many times a measurement repeats to keep the fastest
// run (min-of-reps noise reduction).
const benchRowReps = 3

// pctile reads the p-th percentile from sorted latencies.
func pctile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}
