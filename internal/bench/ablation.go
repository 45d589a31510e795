package bench

import (
	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
)

// Ablations: the design-choice benchmarks DESIGN.md calls out — each
// RTMobile compiler pass toggled independently at a fixed operating point,
// quantifying its individual contribution (the paper reports only the full
// stack; this decomposes it).

// AblationRow is one configuration's measured latency.
type AblationRow struct {
	Config      string
	GPUTimeUS   float64
	CPUTimeUS   float64
	GPUSlowdown float64 // vs the full RTMobile configuration
}

// AblationConfig sizes the ablation sweep.
type AblationConfig struct {
	Spec                 nn.ModelSpec // zero = paper spec
	Point                OperatingPoint
	RowGroups, ColBlocks int
}

// DefaultAblationConfig ablates at the 103× point of Table II.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Point: OperatingPoint{"103x", 16, 16, 103}}
}

// RunAblation measures the full configuration and each pass removed.
func RunAblation(cfg AblationConfig) ([]AblationRow, error) {
	spec := cfg.Spec
	if spec.Hidden == 0 {
		spec = nn.PaperGRUSpec()
	}
	type variant struct {
		name                  string
		format                compiler.Format
		noReorder, noLoadElim bool
	}
	variants := []variant{
		{name: "full RTMobile (BSPC+reorder+loadelim)", format: compiler.FormatBSPC},
		{name: "no matrix reorder", format: compiler.FormatBSPC, noReorder: true},
		{name: "no load elimination", format: compiler.FormatBSPC, noLoadElim: true},
		{name: "CSR instead of BSPC", format: compiler.FormatCSR, noReorder: true, noLoadElim: true},
		{name: "dense (no pruning benefit)", format: compiler.FormatDense},
	}

	build := func(v variant, target *device.Target) (float64, error) {
		model := nn.NewGRUModel(spec)
		var res rtmobile.PruneResult
		if v.format != compiler.FormatDense {
			res = rtmobile.Prune(model, nil, rtmobile.PruneConfig{
				ColRate: cfg.Point.ColRate, RowRate: cfg.Point.EffectiveRowRate(),
				RowGroups: cfg.RowGroups, ColBlocks: cfg.ColBlocks,
			})
		}
		eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{
			Target: target, Format: v.format,
			DisableReorder: v.noReorder, DisableLoadElim: v.noLoadElim,
		})
		if err != nil {
			return 0, err
		}
		return eng.Latency().TotalUS, nil
	}

	var rows []AblationRow
	var fullGPU float64
	for i, v := range variants {
		gpu, err := build(v, device.MobileGPU())
		if err != nil {
			return nil, err
		}
		cpu, err := build(v, device.MobileCPU())
		if err != nil {
			return nil, err
		}
		if i == 0 {
			fullGPU = gpu
		}
		rows = append(rows, AblationRow{
			Config: v.name, GPUTimeUS: gpu, CPUTimeUS: cpu,
			GPUSlowdown: gpu / fullGPU,
		})
	}
	return rows, nil
}

// RenderAblation formats the ablation table.
func RenderAblation(rows []AblationRow, point string) string {
	t := Table{
		Title:   "Ablation at " + point + ": contribution of each compiler pass",
		Headers: []string{"Configuration", "GPU us/frame", "CPU us/frame", "GPU slowdown"},
	}
	for _, r := range rows {
		t.AddRow(r.Config, f(r.GPUTimeUS, 2), f(r.CPUTimeUS, 2), f(r.GPUSlowdown, 2)+"x")
	}
	return t.Render()
}
