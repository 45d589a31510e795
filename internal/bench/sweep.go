package bench

import (
	"fmt"
	"testing"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// Helpers the kernel studies (quant, precision) and the load generator
// share: the Table-I-sized sweep program, the testing.Benchmark row, lane
// inputs, percentiles, and the scheduler adapter.

// WorkerSweepConfig sizes the kernel studies' program.
type WorkerSweepConfig struct {
	// Hidden sizes the GRU projection: the program multiplies the
	// [3*Hidden × Hidden] recurrent matrix (the paper's 1024 → 3072×1024).
	Hidden int
	// ColRate/RowRate prune the matrix before compilation (Table I's axes).
	ColRate, RowRate float64
	// Format of the compiled kernel (default BSPC).
	Format compiler.Format
	Logf   func(string, ...any)
}

// DefaultWorkerSweepConfig measures the paper-scale layer (3072×1024 at
// 16× column / 2× row compression).
func DefaultWorkerSweepConfig() WorkerSweepConfig {
	return WorkerSweepConfig{
		Hidden: 1024, ColRate: 16, RowRate: 2,
		Format: compiler.FormatBSPC,
	}
}

// BuildSweepProgram compiles the study's kernel program: a BSP-pruned
// [3H × H] projection lowered at the configured format on the given tier.
// Exposed for the top-level Go benchmarks, which time it under b.N.
func BuildSweepProgram(cfg WorkerSweepConfig, prec compiler.Precision) (*compiler.PackedProgram, []float32, error) {
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
	opt := compiler.DefaultOptions(cfg.Format, 32)
	opt.Precision = prec
	prog, _, err := compiler.LowerMatrix(src, opt, 1)
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

// PackedBenchRow is one executor measurement.
type PackedBenchRow struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MACsPerSec  float64 `json:"macs_per_sec"`
}

// benchRowReps repeats each testing.Benchmark and keeps the fastest run
// (min-of-reps noise reduction); allocs/op is scheduling-independent, so any
// run's value serves.
const benchRowReps = 3

func benchRow(op string, macs int, fn func(b *testing.B)) PackedBenchRow {
	res := testing.Benchmark(fn)
	for i := 1; i < benchRowReps; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < res.NsPerOp() {
			res = r
		}
	}
	row := PackedBenchRow{
		Op:          op,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
	}
	if row.NsPerOp > 0 {
		row.MACsPerSec = float64(macs) / (row.NsPerOp * 1e-9)
	}
	return row
}

// batchLaneVec builds lane l's input vector for the study.
func batchLaneVec(cols, l int) []float32 {
	rng := tensor.NewRNG(101 + uint64(l)*13)
	x := make([]float32, cols)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

// pctile reads the p-th percentile from sorted latencies.
func pctile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}
