package bench

import (
	"strings"
	"testing"

	"rtmobile/internal/nn"
)

// smallSpec keeps unit tests fast; the full paper spec runs in the
// top-level benchmark harness.
func smallSpec() nn.ModelSpec {
	return nn.ModelSpec{InputDim: 39, Hidden: 64, NumLayers: 2, OutputDim: 39, Seed: 3}
}

func TestOperatingPoints(t *testing.T) {
	pts := PaperOperatingPoints()
	if len(pts) != 10 {
		t.Fatalf("want 10 operating points, got %d", len(pts))
	}
	if !pts[0].Dense() {
		t.Fatal("first point must be the dense baseline")
	}
	prev := 0.0
	for _, p := range pts {
		if p.Overall < prev {
			t.Fatalf("operating points not sorted by overall rate at %s", p.Label)
		}
		prev = p.Overall
		if !p.Dense() && p.EffectiveRowRate() < 1 {
			t.Fatalf("%s: effective row rate %v < 1", p.Label, p.EffectiveRowRate())
		}
	}
	// The 43x row: paper lists col 16 / row 5 but 0.22M params; effective
	// row rate must be overall/col = 43/16.
	p43 := pts[4]
	if p43.EffectiveRowRate() != 43.0/16 {
		t.Fatalf("43x effective row rate %v", p43.EffectiveRowRate())
	}
}

func TestRunTableIISmall(t *testing.T) {
	rows, err := RunTableII(TableIIConfig{
		Spec: smallSpec(),
		Points: []OperatingPoint{
			{"1x", 1, 1, 1}, {"10x", 10, 1, 10}, {"103x", 16, 16, 103},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("row count %d", len(rows))
	}
	// Time decreases with compression; GOP/s decreases (memory bound).
	for i := 1; i < len(rows); i++ {
		if rows[i].GPUTimeUS >= rows[i-1].GPUTimeUS {
			t.Fatalf("GPU time not decreasing: %v then %v", rows[i-1].GPUTimeUS, rows[i].GPUTimeUS)
		}
		if rows[i].CPUTimeUS >= rows[i-1].CPUTimeUS {
			t.Fatalf("CPU time not decreasing")
		}
		if rows[i].GPUGOPs >= rows[i-1].GPUGOPs {
			t.Fatalf("GPU GOP/s not decreasing")
		}
		if rows[i].GPUEfficiency <= rows[i-1].GPUEfficiency {
			t.Fatalf("GPU efficiency not increasing")
		}
		if rows[i].GOP >= rows[i-1].GOP {
			t.Fatalf("GOP not decreasing with compression")
		}
	}
	out := RenderTableII(rows)
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "103x") {
		t.Fatal("render missing content")
	}
}

func TestFigure4FromRows(t *testing.T) {
	rows := []TableIIRow{
		{Point: OperatingPoint{"1x", 1, 1, 1}, GPUTimeUS: 1000, CPUTimeUS: 2000},
		{Point: OperatingPoint{"10x", 10, 1, 10}, GPUTimeUS: 100, CPUTimeUS: 400},
	}
	pts := Figure4(rows)
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].GPUSpeedup != 1 || pts[1].GPUSpeedup != 10 || pts[1].CPUSpeedup != 5 {
		t.Fatalf("speedups wrong: %+v", pts)
	}
	out := RenderFigure4(pts)
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "#") {
		t.Fatal("figure render missing content")
	}
	if Figure4(nil) != nil {
		t.Fatal("empty rows should give nil")
	}
}

func TestRunTableIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := QuickTableIConfig()
	rows, err := RunTableI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Points) {
		t.Fatalf("row count %d, want %d", len(rows), len(cfg.Points))
	}
	// Baseline PER must be well below chance (the model must have learned
	// something): chance is ~97% for 39 classes but collapsed decoding
	// makes "all wrong" 100%; require < 95%.
	if rows[0].PrunedPER >= 95 {
		t.Fatalf("baseline PER %.1f%% — model did not learn", rows[0].PrunedPER)
	}
	// Parameter counts strictly decrease across increasing compression.
	for i := 1; i < len(rows); i++ {
		if rows[i].KeptParams >= rows[i-1].KeptParams {
			t.Fatalf("kept params not decreasing: %d then %d",
				rows[i-1].KeptParams, rows[i].KeptParams)
		}
	}
	// The most extreme point must degrade at least as much as the mildest
	// pruned point (PER is noisy at this scale; require non-crossing of
	// the extremes only).
	first, last := rows[1], rows[len(rows)-1]
	if last.PrunedPER+5 < first.PrunedPER {
		t.Fatalf("301x PER %.1f%% implausibly below 10x PER %.1f%%",
			last.PrunedPER, first.PrunedPER)
	}
	out := RenderTableI(rows)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "BSP (ours)") {
		t.Fatal("render missing content")
	}
}

func TestRunAblationSmall(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Spec = smallSpec()
	rows, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("variant count %d", len(rows))
	}
	full := rows[0]
	if full.GPUSlowdown != 1 {
		t.Fatal("full config slowdown must be 1")
	}
	for _, r := range rows[1:] {
		if r.GPUTimeUS < full.GPUTimeUS-1e-9 {
			t.Fatalf("%s faster than the full configuration", r.Config)
		}
	}
	// Dense must be the slowest variant.
	dense := rows[len(rows)-1]
	for _, r := range rows[:len(rows)-1] {
		if dense.GPUTimeUS < r.GPUTimeUS {
			t.Fatal("dense not slowest")
		}
	}
	out := RenderAblation(rows, "103x")
	if !strings.Contains(out, "Ablation") {
		t.Fatal("render missing content")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.AddRow("xxx", "y")
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "xxx") {
		t.Fatalf("render: %q", out)
	}
}

func TestMillions(t *testing.T) {
	if millions(480_000) != "0.48M" || millions(9_600_000) != "9.60M" {
		t.Fatal("millions formatting wrong")
	}
}

func TestRunQuantSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := QuickQuantSweepConfig()
	cfg.Corpus.NumSpeakers = 6
	cfg.Corpus.SentencesPerSpeaker = 2
	cfg.Hidden = 24
	cfg.BaselineEpochs = 6
	rows, err := RunQuantSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("row count %d", len(rows))
	}
	fp32 := rows[0]
	// fp16 and int12 must be accuracy-neutral (within noise of one
	// utterance's worth of phones).
	if rows[1].PER > fp32.PER+5 {
		t.Fatalf("fp16 PER %.1f%% far above fp32 %.1f%%", rows[1].PER, fp32.PER)
	}
	if rows[2].PER > fp32.PER+5 {
		t.Fatalf("int12 PER %.1f%% far above fp32 %.1f%%", rows[2].PER, fp32.PER)
	}
	// Reconstruction error grows as bits shrink.
	for i := 3; i < len(rows); i++ {
		if rows[i].MeanError <= rows[i-1].MeanError {
			t.Fatalf("quant error not growing: %v then %v", rows[i-1].MeanError, rows[i].MeanError)
		}
	}
	out := RenderQuantSweep(rows)
	if !strings.Contains(out, "fp16") || !strings.Contains(out, "int4") {
		t.Fatal("render missing rows")
	}
}

func TestRunBlockSizeStudy(t *testing.T) {
	cfg := DefaultBlockSizeStudy()
	cfg.Rows, cfg.Cols = 256, 128 // small for test speed
	results, best, err := RunBlockSizeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no candidates")
	}
	// Sorted by score; best is first.
	for i := 1; i < len(results); i++ {
		if results[i].Score < results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if results[0] != best {
		t.Fatal("best is not the top-scored candidate")
	}
	out := RenderBlockSizeStudy(results, best)
	if !strings.Contains(out, "<- chosen") {
		t.Fatal("render missing chosen marker")
	}
}

func TestRunScalingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := QuickScalingConfig()
	cfg.Corpus.NumSpeakers = 6
	cfg.Corpus.SentencesPerSpeaker = 2
	cfg.Hiddens = []int{16, 32}
	cfg.BaselineEpochs = 6
	rows, err := RunScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("row count %d", len(rows))
	}
	// Params and latency grow with hidden size.
	if rows[1].Params <= rows[0].Params {
		t.Fatal("params not growing with hidden size")
	}
	if rows[1].GPUTimeUS <= rows[0].GPUTimeUS {
		t.Fatal("dense latency not growing with hidden size")
	}
	out := RenderScaling(rows, cfg.ProbeColRate)
	if !strings.Contains(out, "capacity") {
		t.Fatal("render missing title")
	}
}
