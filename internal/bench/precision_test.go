package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
)

// smallSweepConfig keeps the kernel study fast for the unit-test tier
// while still exercising program build, timing, and the serial cross-check.
func smallSweepConfig() WorkerSweepConfig {
	return WorkerSweepConfig{
		Hidden: 96, ColRate: 4, RowRate: 1,
		Format: compiler.FormatBSPC,
	}
}

func smallPrecisionBenchConfig() PrecisionBenchConfig {
	return PrecisionBenchConfig{
		WorkerSweepConfig: smallSweepConfig(),
		Batches:           []int{4},
	}
}

func TestRunPrecisionBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark study")
	}
	cfg := smallPrecisionBenchConfig()
	rows, err := RunPrecisionBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both tiers × (one serial row plus one row per batch width).
	if want := 2 * (1 + len(cfg.Batches)); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	type key struct{ op, tier string }
	seen := map[key]PrecisionBenchRow{}
	for _, r := range rows {
		seen[key{r.Op, r.Tier}] = r
		if r.NsPerOp <= 0 || r.MACsPerSec <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// RunPrecisionBench promises an error instead of an allocating row,
		// so every surviving row is allocation-free by contract.
		if r.AllocsPerOp != 0 {
			t.Fatalf("%s/%s allocates %v per op, want 0", r.Op, r.Tier, r.AllocsPerOp)
		}
	}
	for _, op := range []string{"serial", "B4"} {
		for _, tier := range []string{"exact", "fast"} {
			if _, ok := seen[key{op, tier}]; !ok {
				t.Fatalf("missing %s row for op %q", tier, op)
			}
		}
	}
	sp := PrecisionSpeedup(rows)
	if sp[PrecisionHeadlineOp] <= 0 || sp["B4"] <= 0 {
		t.Fatalf("speedup map incomplete: %v", sp)
	}

	out := RenderPrecisionBench(rows, cfg)
	if !strings.Contains(out, "fast") || !strings.Contains(out, "exact") {
		t.Fatalf("render missing tier column:\n%s", out)
	}
	var buf bytes.Buffer
	if err := WritePrecisionJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []PrecisionBenchRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) || back[0].Op != rows[0].Op || back[0].Tier != rows[0].Tier {
		t.Fatal("JSON round trip lost rows")
	}
}
