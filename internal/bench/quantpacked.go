package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/quant"
)

// Quantized packed-execution study: the int8/int16 weight-streaming
// trajectory on the memory-bound hot path. Each row times one (value
// format, batch width) pair on the Table-I-sized GRU projection and
// records the weight bytes the kernel streams per step, so the artifact
// shows the bandwidth story (q8 streams 1/4 the bytes of f32) next to
// the wall-clock payoff. Quantized outputs are cross-checked for
// serial/interpreter/batch-lane consistency before any timing; the
// bit-exactness of those outputs against the scalar dequantize-then-dot
// reference is enforced by the compiler package's equivalence suite.

// QuantBenchConfig sizes the quantized packed study.
type QuantBenchConfig struct {
	WorkerSweepConfig
	// Batches are the lockstep panel widths to measure alongside serial.
	Batches []int
}

// DefaultQuantBenchConfig measures the paper-scale layer serially and at
// B = 8 and 32, for f32, q8, and q16 weight streams.
func DefaultQuantBenchConfig() QuantBenchConfig {
	return QuantBenchConfig{
		WorkerSweepConfig: DefaultWorkerSweepConfig(),
		Batches:           []int{8, 32},
	}
}

// QuantBenchRow is one (format, batch) measurement. WeightBytesStreamed
// is the bytes of weight values the executor streams per step (per panel
// step for batched rows — batching amortizes the same stream over B
// lanes, which is why MACsPerStreamedByte scales with B).
type QuantBenchRow struct {
	Op                  string  `json:"op"`
	Format              string  `json:"format"`
	Bits                int     `json:"bits"`
	Batch               int     `json:"batch"`
	NsPerOp             float64 `json:"ns_per_op"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	MACsPerSec          float64 `json:"macs_per_sec"`
	WeightBytesStreamed int     `json:"weight_bytes_streamed"`
	MACsPerStreamedByte float64 `json:"macs_per_streamed_byte"`
}

// quantExec is one storage format's packed program and its scratch.
type quantExec struct {
	format string
	bits   int
	pp     *compiler.PackedProgram
	s      *compiler.PackedScratch
}

// RunQuantBench measures f32 vs q8 vs q16 packed execution, serial and
// at every configured panel width, on the sweep config's program.
func RunQuantBench(cfg QuantBenchConfig) ([]QuantBenchRow, error) {
	prog, x, err := BuildSweepProgram(cfg.WorkerSweepConfig)
	if err != nil {
		return nil, err
	}
	var execs []quantExec
	for _, bits := range []int{0, 8, 16} {
		pp, err := compiler.PackQuant(prog, bits, quant.PerRow)
		if err != nil {
			return nil, err
		}
		ex := quantExec{format: fmt.Sprintf("q%d", bits), bits: bits, pp: pp, s: pp.NewScratch()}
		if bits == 0 {
			ex.format, ex.bits = "f32", 32
		}
		execs = append(execs, ex)
	}
	macs := execs[0].pp.TotalMACs()

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

	toRow := func(ex quantExec, bw int, r PackedBenchRow) QuantBenchRow {
		row := QuantBenchRow{
			Op: r.Op, Format: ex.format, Bits: ex.bits, Batch: bw,
			NsPerOp: r.NsPerOp, AllocsPerOp: r.AllocsPerOp, MACsPerSec: r.MACsPerSec,
			WeightBytesStreamed: ex.pp.StreamBytes(),
		}
		if stream := ex.pp.StreamBytes(); stream > 0 {
			row.MACsPerStreamedByte = float64(bw) * float64(macs) / float64(stream)
		}
		return row
	}

	var rows []QuantBenchRow
	for _, ex := range execs {
		// Serial consistency anchor: every batched lane below must
		// reproduce these outputs bit-for-bit.
		refs := make([][]float32, maxB)
		for l := range refs {
			refs[l] = make([]float32, prog.Rows)
			if err := ex.pp.Run(refs[l], lanes[l], ex.s); err != nil {
				return nil, err
			}
		}
		y := make([]float32, prog.Rows)
		op := ex.format + "/serial"
		rows = append(rows, toRow(ex, 1, benchRow(op, macs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.pp.Run(y, x, ex.s)
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
			if err := ex.pp.RunBatch(yp, xp, bw, ex.s); err != nil {
				return nil, err
			}
			for l := 0; l < bw; l++ {
				for r := 0; r < prog.Rows; r++ {
					if yp[r*bw+l] != refs[l][r] {
						return nil, fmt.Errorf("bench: %s batch B=%d diverged from serial at lane %d row %d",
							ex.format, bw, l, r)
					}
				}
			}
			op := fmt.Sprintf("%s/B%d", ex.format, bw)
			rows = append(rows, toRow(ex, bw, benchRow(op, macs*bw, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ex.pp.RunBatch(yp, xp, bw, ex.s)
				}
			})))
		}
		if cfg.Logf != nil {
			cfg.Logf("%s measured", ex.format)
		}
	}
	return rows, nil
}

// QuantBenchSpeedup returns each quantized row's MACs/s normalized to
// the f32 row with the same batch suffix — the headline acceptance
// number is the "q8/serial" entry.
func QuantBenchSpeedup(rows []QuantBenchRow) map[string]float64 {
	base := map[string]float64{}
	for _, r := range rows {
		if r.Format == "f32" {
			base[suffixAfterSlash(r.Op)] = r.MACsPerSec
		}
	}
	out := map[string]float64{}
	for _, r := range rows {
		if r.Format == "f32" || r.MACsPerSec <= 0 {
			continue
		}
		if b, ok := base[suffixAfterSlash(r.Op)]; ok && b > 0 {
			out[r.Op] = r.MACsPerSec / b
		}
	}
	return out
}

func suffixAfterSlash(op string) string {
	for i := 0; i < len(op); i++ {
		if op[i] == '/' {
			return op[i+1:]
		}
	}
	return op
}

// RenderQuantBench formats the study.
func RenderQuantBench(rows []QuantBenchRow, cfg QuantBenchConfig) string {
	t := Table{
		Title: fmt.Sprintf(
			"Quantized packed execution (%dx%d %s, %d lanes, lane outputs bit-identical to serial)",
			3*cfg.Hidden, cfg.Hidden, cfg.Format, cfg.Lanes),
		Headers: []string{"Op", "bits", "B", "ns/op", "allocs/op", "GMACs/s", "stream KiB/step", "MACs/byte"},
	}
	for _, r := range rows {
		t.AddRow(r.Op, f(float64(r.Bits), 0), f(float64(r.Batch), 0),
			f(r.NsPerOp, 0), f(r.AllocsPerOp, 0), f(r.MACsPerSec/1e9, 2),
			f(float64(r.WeightBytesStreamed)/1024, 1), f(r.MACsPerStreamedByte, 2))
	}
	return t.Render()
}

// WriteQuantJSON writes the rows as indented JSON — the BENCH_<n>.json
// artifact recording the quantized backend's perf trajectory.
func WriteQuantJSON(w io.Writer, rows []QuantBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
