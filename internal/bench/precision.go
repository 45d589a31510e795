package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"rtmobile/internal/compiler"
)

// Precision-tier study: exact vs fast kernels on the memory-bound hot
// path. Each row times one (tier, batch width) pair on the Table-I-sized
// GRU projection, so the artifact records what the relaxed tolerance
// contract actually buys — FMA + f32 accumulation against the bit-pinned
// f64-accumulation reference — serial and batched. There is no storage
// axis: a quantized program holds dequantized float32 values and runs
// these same kernels. Fast outputs are tolerance-checked against the exact
// tier's before any timing (the tight per-row ULP contract is enforced by
// the compiler package's equivalence suite; the check here is the bench's
// own smoke gate), and every row must be allocation-free or the run errors
// out.

// PrecisionSpeedupTarget is the acceptance floor: fast serial must beat
// exact serial by at least this factor on the headline layer.
const PrecisionSpeedupTarget = 1.3

// PrecisionHeadlineOp keys the acceptance entry in PrecisionSpeedup's
// result: the serial pairing on the 3072x1024 projection.
const PrecisionHeadlineOp = "serial"

// precisionBenchTol bounds |fast - exact| per output element in the
// pre-timing smoke check. The sweep layer's rows hold ~64 kept weights
// of Xavier scale against a unit-normal input, so exact outputs are
// O(1) and the fast tier's rounding-order drift sits orders of
// magnitude below this.
const precisionBenchTol = 1e-3

// PrecisionBenchConfig sizes the precision-tier study.
type PrecisionBenchConfig struct {
	WorkerSweepConfig
	// Batches are the lockstep panel widths to measure alongside serial.
	Batches []int
}

// DefaultPrecisionBenchConfig measures the paper-scale layer serially
// and at B = 8 and 32 on both tiers.
func DefaultPrecisionBenchConfig() PrecisionBenchConfig {
	return PrecisionBenchConfig{
		WorkerSweepConfig: DefaultWorkerSweepConfig(),
		Batches:           []int{8, 32},
	}
}

// PrecisionBenchRow is one (tier, batch) measurement.
type PrecisionBenchRow struct {
	Op          string  `json:"op"`   // "serial" or "B<width>"
	Tier        string  `json:"tier"` // "exact" or "fast"
	Batch       int     `json:"batch"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MACsPerSec  float64 `json:"macs_per_sec"`
}

// tierName names the tiers in index order: [exact, fast].
var tierName = [2]string{"exact", "fast"}

// RunPrecisionBench measures exact vs fast packed execution, serial and at
// every configured panel width.
func RunPrecisionBench(cfg PrecisionBenchConfig) ([]PrecisionBenchRow, error) {
	// The tier is fixed when a program is lowered, so the study lowers the
	// projection once per tier.
	var pp [2]*compiler.PackedProgram
	var x []float32
	for tier, prec := range []compiler.Precision{compiler.PrecisionExact, compiler.PrecisionFast} {
		var err error
		if pp[tier], x, err = BuildSweepProgram(cfg.WorkerSweepConfig, prec); err != nil {
			return nil, err
		}
	}
	prog, s := pp[0], pp[0].NewScratch()
	macs := pp[0].TotalMACs()

	maxB := 1
	for _, b := range cfg.Batches {
		if b > maxB {
			maxB = b
		}
	}
	lanes := make([][]float32, maxB)
	for l := range lanes {
		lanes[l] = batchLaneVec(prog.Cols, l)
	}
	lanes[0] = x

	// Exact serial outputs per lane: the tolerance anchor for every
	// fast-tier row (fast batch lanes accumulate in a different — but
	// equally f32 — order than fast serial, so all fast outputs are
	// checked against the exact reference rather than each other).
	refs := make([][]float32, maxB)
	for l := range refs {
		refs[l] = make([]float32, prog.Rows)
		if err := pp[0].Run(refs[l], lanes[l], s); err != nil {
			return nil, err
		}
	}
	checkLane := func(got []float32, l int, what string) error {
		for r, v := range got {
			if d := math.Abs(float64(v - refs[l][r])); d > precisionBenchTol {
				return fmt.Errorf("bench: %s diverged from exact at lane %d row %d (|Δ|=%g)", what, l, r, d)
			}
		}
		return nil
	}

	var rows []PrecisionBenchRow
	for tier := 0; tier < 2; tier++ {
		y := make([]float32, prog.Rows)
		if err := pp[tier].Run(y, x, s); err != nil {
			return nil, err
		}
		if err := checkLane(y, 0, tierName[tier]+"/serial"); err != nil {
			return nil, err
		}
		rows = append(rows, precisionRow(tierName[tier], 1, benchRow("serial", macs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pp[tier].Run(y, x, s)
			}
		})))
		for _, bw := range cfg.Batches {
			xp := make([]float32, prog.Cols*bw)
			for l := 0; l < bw; l++ {
				for i, v := range lanes[l] {
					xp[i*bw+l] = v
				}
			}
			yp := make([]float32, prog.Rows*bw)
			if err := pp[tier].RunBatch(yp, xp, bw, s); err != nil {
				return nil, err
			}
			lane := make([]float32, prog.Rows)
			for l := 0; l < bw; l++ {
				for r := 0; r < prog.Rows; r++ {
					lane[r] = yp[r*bw+l]
				}
				if err := checkLane(lane, l, fmt.Sprintf("%s/B%d", tierName[tier], bw)); err != nil {
					return nil, err
				}
			}
			op := fmt.Sprintf("B%d", bw)
			rows = append(rows, precisionRow(tierName[tier], bw, benchRow(op, macs*bw, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pp[tier].RunBatch(yp, xp, bw, s)
				}
			})))
		}
		if cfg.Logf != nil {
			cfg.Logf("%s tier measured", tierName[tier])
		}
	}
	for _, r := range rows {
		if r.AllocsPerOp != 0 {
			return nil, fmt.Errorf("bench: %s %s allocates %.0f/op on the hot path",
				r.Op, r.Tier, r.AllocsPerOp)
		}
	}
	return rows, nil
}

func precisionRow(tier string, bw int, r PackedBenchRow) PrecisionBenchRow {
	return PrecisionBenchRow{
		Op: r.Op, Tier: tier, Batch: bw,
		NsPerOp: r.NsPerOp, AllocsPerOp: r.AllocsPerOp, MACsPerSec: r.MACsPerSec,
	}
}

// PrecisionSpeedup returns each fast row's MACs/s normalized to the
// exact row with the same op — the acceptance entry is
// PrecisionHeadlineOp.
func PrecisionSpeedup(rows []PrecisionBenchRow) map[string]float64 {
	base := map[string]float64{}
	for _, r := range rows {
		if r.Tier == "exact" {
			base[r.Op] = r.MACsPerSec
		}
	}
	out := map[string]float64{}
	for _, r := range rows {
		if r.Tier != "fast" || r.MACsPerSec <= 0 {
			continue
		}
		if b, ok := base[r.Op]; ok && b > 0 {
			out[r.Op] = r.MACsPerSec / b
		}
	}
	return out
}

// RenderPrecisionBench formats the study.
func RenderPrecisionBench(rows []PrecisionBenchRow, cfg PrecisionBenchConfig) string {
	t := Table{
		Title: fmt.Sprintf(
			"Precision tiers (%dx%d %s, fast tolerance-checked against exact)",
			3*cfg.Hidden, cfg.Hidden, cfg.Format),
		Headers: []string{"Op", "tier", "B", "ns/op", "allocs/op", "GMACs/s"},
	}
	for _, r := range rows {
		t.AddRow(r.Op, r.Tier, f(float64(r.Batch), 0),
			f(r.NsPerOp, 0), f(r.AllocsPerOp, 0), f(r.MACsPerSec/1e9, 2))
	}
	return t.Render()
}

// WritePrecisionJSON writes the rows as indented JSON — the
// BENCH_<n>.json artifact recording the fast tier's perf trajectory.
func WritePrecisionJSON(w io.Writer, rows []PrecisionBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
