package serve

import (
	"fmt"
	"strings"

	"rtmobile/internal/compiler"
	"rtmobile/internal/obs"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/tensor"
)

// RenderLayerStats formats Engine.LayerStats as the per-layer latency
// table run -stats and /statz print. The MAC column is the plan's priced
// per-timestep count; the timing columns are the tracer's per-layer totals
// when tracing is on (all zero otherwise). The per-layer MAC rows sum to exactly the
// plan total printed in the footer. The first line names the instruction set
// each kernel family runs on in this process (tensor.KernelSet): the timing
// columns mean something different on a portable build.
func RenderLayerStats(eng *rtmobile.Engine) string {
	stats := eng.LayerStats()
	var b strings.Builder
	fmt.Fprintf(&b, "kernels: %s\n", tensor.KernelSet())
	fmt.Fprintf(&b, "%-6s %-8s %12s %10s %12s %10s\n",
		"layer", "name", "MACs/step", "steps", "total_us", "avg_us")
	totalMACs, totalNs := 0, int64(0)
	for _, ls := range stats {
		fmt.Fprintf(&b, "%-6d %-8s %12d %10d %12.1f %10.2f\n",
			ls.Index, ls.Name, ls.MACs, ls.Spans,
			float64(ls.TotalNs)/1e3, float64(ls.AvgNs())/1e3)
		totalMACs += ls.MACs
		totalNs += ls.TotalNs
	}
	fmt.Fprintf(&b, "%-6s %-8s %12d %10s %12.1f\n",
		"total", "", totalMACs, "", float64(totalNs)/1e3)
	plan := eng.Plan()
	fmt.Fprintf(&b, "plan check: %d MACs/step x %d timesteps = %d MACs/frame (plan prices %d)\n",
		totalMACs, rtmobile.TimestepsPerFrame,
		totalMACs*rtmobile.TimestepsPerFrame, plan.FrameMACs())
	if bits := eng.Quantized(); bits != 0 {
		fmt.Fprintf(&b, "quantization: int%d weights\n", bits)
	}
	if tier := eng.Precision(); tier != compiler.PrecisionExact {
		fmt.Fprintf(&b, "precision: %s kernels\n", tier)
	}
	if m := obs.M(); m != nil {
		fmt.Fprintf(&b, "bytes_streamed_total: %d\n", m.BytesStreamed.Value())
	}
	if tr := eng.Tracer(); tr != nil {
		for _, k := range []obs.StageKind{obs.StageKernel, obs.StageEpilogue} {
			if n, ns := tr.KindTotal(k); n > 0 {
				fmt.Fprintf(&b, "kernel spans %-10s count=%d total_us=%.1f\n", k, n, float64(ns)/1e3)
			}
		}
		// Epilogue time nests inside layer time, so layer − epilogue is
		// the time the recurrent layers spent in their projections.
		if epN, epNs := tr.KindTotal(obs.StageEpilogue); epN > 0 {
			_, layerNs := tr.KindTotal(obs.StageLayer)
			matmulNs := layerNs - epNs
			if matmulNs < 0 {
				matmulNs = 0
			}
			fmt.Fprintf(&b, "step split: matmul_us=%.1f epilogue_us=%.1f (epilogue %.1f%% of layer time)\n",
				float64(matmulNs)/1e3, float64(epNs)/1e3,
				100*float64(epNs)/float64(max(layerNs, 1)))
		}
	}
	return b.String()
}
