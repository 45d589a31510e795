package main

// metricDef names one reported number. BENCHMARK.json at the repository
// root repeats name, unit, direction and (end to end) bound; a test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // end to end only: share of the parent's median it may worsen by
	note   string  // end to end: what it is; per layer: which end-to-end metric it should move, where
}

// endToEnd is reported by every workload from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, "median over repeated set-ups of model+prune+compile+save v5+MapBundle/Register+first verified output"},
	{"frame_us_p05", "us", false, 0.15, "5th percentile over ops of op duration / frames in op: the undisturbed cost of one 10 ms frame"},
	{"rtf", "x", true, 0.15, "audio seconds completed per second (closed loop: per busy second, median of 20 segments; open loop: per wall second)"},
	{"cpu_us_per_frame", "us", false, 0.25, "process user+sys CPU over the timed phase / frames, load generator included"},
	{"slo_attainment", "ratio", true, 0.03, "ops attempted that were correct and within the workload's latency limit"},
	{"success_rate", "ratio", true, 0.001, "ops whose outputs matched the oracle / ops attempted"},
	{"peak_rss_mb", "MB", false, 0.10, "VmHWM at the end of the run"},
}

// perLayer is reported by every workload from the traced run. The note
// is the prediction written down before measuring.
var perLayer = []metricDef{
	{"tensor.gemv_us", "us", false, 0, "frame_us_p05 on stream_10x; ~0 on serve_open"},
	{"tensor.epilogue_us", "us", false, 0, "frame_us_p05 on stream_245x once GEMVs are sparse"},
	{"tensor.softmax_us", "us", false, 0, "frame_us_p05 on stream_245x once GEMVs are sparse"},
	{"tensor.gemv_batch8_us", "us", false, 0, "frame_us_p05 on batch_offline"},
	{"tensor.gemv_fast_us", "us", false, 0, "nothing gated: the fast tier is not a workload yet"},
	{"tensor.epilogue_fast_us", "us", false, 0, "nothing gated: the fast tier is not a workload yet"},
	{"compiler.packed_step_us", "us", false, 0, "nothing today (not on the serving path); tensor.gemv_us minus this is the headroom of frame_us_p05 on stream_*"},
	{"compiler.packed_batch8_step_us", "us", false, 0, "nothing today; headroom of frame_us_p05 on batch_offline"},
	{"compiler.macs_per_step", "count", false, 0, "exact count; falls with the BSP rate"},
	{"compiler.weight_bytes", "B", false, 0, "exact count; falls with the BSP rate"},
	{"compiler.compile_ms", "ms", false, 0, "setup_s"},
	{"compiler.pack_ms", "ms", false, 0, "setup_s"},
	{"nn.step_us", "us", false, 0, "frame_us_p05 on stream_*"},
	{"nn.batch_step_us", "us", false, 0, "frame_us_p05 on batch_offline (per lane-frame at width 8)"},
	{"rtmobile.stepinto_us", "us", false, 0, "frame_us_p05, cpu_us_per_frame on stream_*"},
	{"rtmobile.wrapper_self_us", "us", false, 0, "frame_us_p05 on stream_245x first"},
	{"rtmobile.infer_batch_ms", "ms", false, 0, "frame_us_p05, cpu_us_per_frame on batch_offline"},
	{"rtmobile.infer_req_ms", "ms", false, 0, "frame_us_p05 on serve_open"},
	{"rtmobile.save_bundle_ms", "ms", false, 0, "setup_s"},
	{"rtmobile.map_bundle_ms", "ms", false, 0, "setup_s, peak_rss_mb"},
	{"rtmobile.bundle_mb", "MB", false, 0, "setup_s, peak_rss_mb"},
	{"rtmobile.allocs_per_frame", "count", false, 0, "cpu_us_per_frame on the workload's own op"},
	{"prune.project_ms", "ms", false, 0, "setup_s"},
	{"prune.achieved_rate", "x", true, 0, "none; says what the BSP rate left of the model"},
	{"parallel.forkjoin_us", "us", false, 0, "frame_us_p05, cpu_us_per_frame on batch_offline; none on stream_* (1 worker)"},
	{"parallel.forkjoin_allocs", "count", false, 0, "cpu_us_per_frame on batch_offline"},
	{"sched.infer_ms", "ms", false, 0, "frame_us_p05, slo_attainment on serve_open only"},
	{"sched.overhead_ms", "ms", false, 0, "frame_us_p05 on serve_open only"},
	{"sched.queue_wait_ms_mean", "ms", false, 0, "frame_us_p05, slo_attainment on serve_open only"},
	{"sched.batch_width_mean", "count", true, 0, "cpu_us_per_frame on serve_open only"},
	{"sched.rejected", "count", false, 0, "slo_attainment, success_rate on serve_open only"},
	{"serve.handler_ms", "ms", false, 0, "frame_us_p05 on serve_open only"},
	{"serve.http_ms", "ms", false, 0, "frame_us_p05 on serve_open only"},
	{"serve.overhead_ms", "ms", false, 0, "frame_us_p05, cpu_us_per_frame on serve_open only"},
	{"serve.json_decode_us", "us", false, 0, "cpu_us_per_frame on serve_open only"},
	{"serve.json_encode_us", "us", false, 0, "cpu_us_per_frame on serve_open only"},
	{"serve.req_bytes", "B", false, 0, "serve.json_decode_us"},
	{"serve.resp_bytes", "B", false, 0, "serve.json_encode_us"},
	{"serve.allocs_per_req", "count", false, 0, "cpu_us_per_frame, peak_rss_mb on serve_open only"},
	{"serve.server_slo_attainment", "ratio", true, 0, "none; the server's own view of slo_attainment"},
	{"serve.slo_gap", "ratio", false, 0, "none; |server - client| attainment (ROADMAP 5a)"},
	{"registry.register_ms", "ms", false, 0, "setup_s on serve_open"},
	{"registry.acquire_ns", "ns", false, 0, "frame_us_p05 on serve_open"},
	{"obs.metrics_overhead_pct", "%", false, 0, "frame_us_p05 on stream_245x first"},
	{"speech.corpus_gen_s", "s", false, 0, "none today: the front end is off the serving path (ROADMAP 3)"},
	{"speech.mfcc_us_per_frame", "us", false, 0, "none today: the front end is off the serving path (ROADMAP 3)"},
	{"device.model_step_us", "us", false, 0, "none: the cost model's prediction of rtmobile.stepinto_us"},
	{"device.model_error_ratio", "x", false, 0, "none: model / measured (ROADMAP 3)"},
	{"paper.stepinto_us", "us", false, 0, "ungated: the 2x1024 paper-scale point, noisy on this host"},
	{"paper.packed_step_us", "us", false, 0, "ungated: the 2x1024 paper-scale point"},
	{"bench.budget_residual_pct", "%", false, 0, "(end to end - sum of layer self) / end to end; target <= 10"},
	{"bench.trace_overhead_pct", "%", false, 0, "traced vs untraced frame_us_p05 inside the traced run"},
	{"bench.gen_late_ms_p99", "ms", false, 0, "how late the open-loop generator sent; charged to the request"},
	{"bench.steal_pct", "%", false, 0, "hypervisor steal over the timed phase (/proc/stat)"},
	{"bench.seg_iqr_pct", "%", false, 0, "spread of the 20 rtf segments inside one run"},
	{"bench.ops", "count", true, 0, "ops in the timed phase"},
	{"bench.frames", "count", true, 0, "frames in the timed phase"},
	{"bench.latency_ms_p50", "ms", false, 0, "not gated: did not repeat within a tenth on the reference host"},
	{"bench.latency_ms_p99", "ms", false, 0, "not gated: did not repeat within a tenth on the reference host"},
}

// values is what a run reports, keyed by metric name.
type values map[string]float64
