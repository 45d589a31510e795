package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
)

// smallSweepConfig keeps the kernel studies fast for the unit-test tier
// while still exercising program build, timing, and the serial cross-check.
func smallSweepConfig() WorkerSweepConfig {
	return WorkerSweepConfig{
		Hidden: 96, ColRate: 4, RowRate: 1,
		Format: compiler.FormatBSPC, Lanes: 4,
	}
}

func smallQuantBenchConfig() QuantBenchConfig {
	return QuantBenchConfig{
		WorkerSweepConfig: smallSweepConfig(),
		Batches:           []int{4},
	}
}

func TestRunQuantBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark study")
	}
	cfg := smallQuantBenchConfig()
	rows, err := RunQuantBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One serial row plus one row per batch width, for f32, q8, and q16.
	if want := 3 * (1 + len(cfg.Batches)); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	seen := map[string]QuantBenchRow{}
	for _, r := range rows {
		seen[r.Op] = r
		if r.NsPerOp <= 0 || r.MACsPerSec <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.WeightBytesStreamed <= 0 || r.MACsPerStreamedByte <= 0 {
			t.Fatalf("row %q missing stream accounting", r.Op)
		}
	}
	for _, op := range []string{"f32/serial", "q8/serial", "q16/serial", "q8/B4"} {
		if _, ok := seen[op]; !ok {
			t.Fatalf("missing op %q", op)
		}
	}
	// The bandwidth story is structural, not a timing artifact: q8 streams
	// exactly a quarter of the f32 weight bytes, q16 exactly half.
	if 4*seen["q8/serial"].WeightBytesStreamed != seen["f32/serial"].WeightBytesStreamed {
		t.Fatalf("q8 stream %d bytes, f32 %d — want exact 4x ratio",
			seen["q8/serial"].WeightBytesStreamed, seen["f32/serial"].WeightBytesStreamed)
	}
	if 2*seen["q16/serial"].WeightBytesStreamed != seen["f32/serial"].WeightBytesStreamed {
		t.Fatalf("q16 stream %d bytes, f32 %d — want exact 2x ratio",
			seen["q16/serial"].WeightBytesStreamed, seen["f32/serial"].WeightBytesStreamed)
	}
	// Batching amortizes one weight stream over B lanes.
	if seen["q8/B4"].MACsPerStreamedByte <= seen["q8/serial"].MACsPerStreamedByte {
		t.Fatalf("arithmetic intensity did not grow with B: serial=%v B4=%v",
			seen["q8/serial"].MACsPerStreamedByte, seen["q8/B4"].MACsPerStreamedByte)
	}
	// Steady-state quantized execution with a reused scratch is allocation-free.
	for _, op := range []string{"q8/serial", "q16/serial", "q8/B4", "q16/B4"} {
		if r := seen[op]; r.AllocsPerOp != 0 {
			t.Fatalf("%s allocates %v per op, want 0", op, r.AllocsPerOp)
		}
	}
	sp := QuantBenchSpeedup(rows)
	if sp["q8/serial"] <= 0 || sp["q16/B4"] <= 0 {
		t.Fatalf("speedup map incomplete: %v", sp)
	}

	out := RenderQuantBench(rows, cfg)
	if !strings.Contains(out, "MACs/byte") {
		t.Fatalf("render missing stream column:\n%s", out)
	}
	var buf bytes.Buffer
	if err := WriteQuantJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []QuantBenchRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) || back[0].Op != rows[0].Op {
		t.Fatal("JSON round trip lost rows")
	}
}
