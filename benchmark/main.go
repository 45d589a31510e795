// Command benchmark is the repository's one benchmark: one invocation
// builds one workload's deployment, checks its outputs against an
// oracle, measures a timed phase and prints every metric by name.
//
//	go run ./benchmark -workload stream_10x -seed 2020 -seconds 20 -trace 0
//
// See README.md in this directory for the workloads, the metrics and why
// each was chosen. It drives only public functions of the internal
// packages and changes nothing outside this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// config is one run.
type config struct {
	w       workload
	seed    uint64
	seconds float64 // length of the timed phase
	warmup  float64 // length of the discarded phase before it
	setups  int     // how many times set-up is repeated; setup_s is their median
	trace   bool
	// tamper, when set, edits the generated inputs after the oracle's
	// references are computed (tests use it to prove the oracle bites).
	tamper func(*inputs)
}

const (
	defaultSeconds = 20
	defaultWarmup  = 2
	defaultSetups  = 5
)

// short shrinks a run to a tiny model and sub-second phases: the shape
// `go test ./benchmark/...` runs, and `-short` on the command line.
func (c config) short() config {
	c.w.hidden, c.w.paperHidden = 32, 64
	c.seconds, c.warmup, c.setups = 0.3, 0.05, 2
	return c
}

// result is what one run measured.
type result struct {
	values    values
	defs      []metricDef
	attempted int
	failed    int
	spans     int // spans recorded; 0 on an untraced run
	tracePath string
	// layerSelfMs is the traced run's self time per layer: each span's
	// duration minus what its child spans cover, summed.
	layerSelfMs map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 }

// exitCode is 0 only when every output matched the oracle.
func (r *result) exitCode() int {
	if r.correct() {
		return 0
	}
	return 1
}

// runWorkload performs one run. RTMOBILE_WORKERS must already be set for
// the workload (main does it before anything touches the worker pool).
func runWorkload(cfg config) (*result, error) {
	w, nproc := cfg.w, runtime.NumCPU()
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	in.computeRefs(referenceModel(w))
	if cfg.tamper != nil {
		cfg.tamper(in)
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set up several times and keep the last: setup_s is the median, so
	// one cold start (page cache, first mmap) does not decide it.
	var dep *deployment
	var setupS []float64
	debug.FreeOSMemory()
	for r := 0; r < cfg.setups; r++ {
		if dep != nil {
			dep.close()
		}
		var setupRec *recorder
		if r == cfg.setups-1 {
			setupRec = rec
		}
		// The collector is held off during a set-up, and run once after it
		// with the freed memory returned to the system: what a set-up
		// allocates is deterministic, when a concurrent collection happens
		// to finish is not, and peak_rss_mb moved 6 % run to run with it.
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		dep, err = setUp(w, in, nproc, setupRec)
		setupS = append(setupS, time.Since(t0).Seconds())
		debug.SetGCPercent(gc)
		debug.FreeOSMemory()
		if err != nil {
			return nil, err
		}
	}
	defer dep.close()

	run := func(seconds float64, planSeed uint64, rec *recorder) *phase {
		if w.kind == opServe {
			return runOpen(dep.stack, in, arrivalPlan(planSeed, len(in.utts), serveRate, seconds), nproc, rec)
		}
		return runClosed(dep.runner(in), time.Duration(seconds*float64(time.Second)), rec)
	}
	run(cfg.warmup, cfg.seed+1, nil)

	res := &result{values: values{}}
	if !cfg.trace {
		p := run(cfg.seconds, cfg.seed, nil)
		res.defs = endToEnd
		res.values = p.endToEndValues(w)
		res.values["setup_s"] = median(setupS)
		res.values["peak_rss_mb"] = peakRSSMB()
		res.attempted, res.failed = len(p.ok), p.failed()
		return res, nil
	}

	// Traced run: the phase alternates between untraced and traced
	// stretches (a span per op), so that what tracing costs is measured
	// inside one process and a drift of the host lands on both; then each
	// layer's public functions are replayed on the same inputs.
	const rounds = 3
	plain, traced := &phase{}, &phase{}
	var server serverView
	if w.kind == opServe {
		server.begin(dep.stack)
	}
	for r := uint64(0); r < rounds; r++ {
		plain.add(run(0.3*cfg.seconds/rounds, cfg.seed+2+r, nil))
		traced.add(run(0.7*cfg.seconds/rounds, cfg.seed+2+rounds+r, rec))
	}
	if w.kind == opServe {
		both := &phase{}
		both.add(plain)
		both.add(traced)
		server.end(dep.stack, both, serveSLONs)
	}
	res.defs = perLayer
	res.attempted, res.failed = len(traced.ok), traced.failed()
	if res.values, err = replayLayers(dep, in, plain, traced, server, nproc, rec); err != nil {
		return nil, err
	}
	res.values["speech.corpus_gen_s"] = in.corpusGenS
	spans := rec.all()
	res.spans = len(spans)
	res.layerSelfMs = make(map[string]float64)
	for layer, ns := range layerSelfNs(spans) {
		res.layerSelfMs[layer] = float64(ns) / 1e6
	}
	res.tracePath = filepath.Join(outDir, w.name+".trace.json")
	if err := writeTraceFile(res.tracePath, spans, hostFingerprint(cfg.seed)); err != nil {
		return nil, err
	}
	return res, nil
}

func writeTraceFile(path string, spans []span, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostFingerprint is printed with every run and stored in the trace.
func hostFingerprint(seed uint64) map[string]any {
	feat, tier := tensor.CPUFeatures(), "portable"
	switch {
	case tensor.FastSIMD512():
		tier = "avx512"
	case tensor.FastSIMD():
		tier = "avx2+fma"
	case feat.AVX2:
		tier = "avx2"
	}
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"tensor": tier, "go": runtime.Version(), "git": sha, "seed": seed,
		"workers": os.Getenv(parallel.EnvWorkers),
	}
}

// report prints every metric by name with unit, direction and bound,
// then the one-line JSON result the driver reads.
func report(out io.Writer, cfg config, res *result) error {
	fp := hostFingerprint(cfg.seed)
	fmt.Fprintf(out, "# workload=%s trace=%v seconds=%g warmup=%g setups=%d\n", cfg.w.name, cfg.trace, cfg.seconds, cfg.warmup, cfg.setups)
	fmt.Fprintf(out, "# host cpu=%q nproc=%v GOMAXPROCS=%v tensor=%v go=%v git=%v seed=%v RTMOBILE_WORKERS=%v\n",
		fp["cpu"], fp["nproc"], fp["GOMAXPROCS"], fp["tensor"], fp["go"], fp["git"], fp["seed"], fp["workers"])
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(res.defs))
	for _, d := range res.defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		dir, bound := "lower", "-"
		if d.higher {
			dir = "higher"
		}
		if d.bound > 0 {
			bound = strconv.FormatFloat(d.bound, 'g', -1, 64)
		}
		fmt.Fprintf(out, "%-32s %14.6g %-6s better=%-6s bound=%s\n", d.name, v, d.unit, dir, bound)
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if res.tracePath != "" {
		fmt.Fprintf(out, "# trace: %d spans in %s\n", res.spans, res.tracePath)
		layers := make([]string, 0, len(res.layerSelfMs))
		for layer := range res.layerSelfMs {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		fmt.Fprint(out, "# self time by layer, ms:")
		for _, layer := range layers {
			fmt.Fprintf(out, " %s=%.1f", layer, res.layerSelfMs[layer])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# ops attempted=%d failed=%d\n", res.attempted, res.failed)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: stream_10x, stream_245x, batch_offline or serve_open")
	seed := fs.Uint64("seed", 2020, "seed of the generated inputs (corpus, order, ragged lengths, arrival plan)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run with layer replays")
	short := fs.Bool("short", false, "tiny model and sub-second phases (what the unit tests run)")
	aa := fs.Int("aa", 0, "run k full suites for each of two interleaved sets of the same code and compare their medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, *seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, warmup: defaultWarmup, setups: defaultSetups, trace: *trace == 1}
	if *short {
		cfg = cfg.short()
	}
	// The worker pool reads this once, at its first use.
	os.Setenv(parallel.EnvWorkers, strconv.Itoa(w.workers(runtime.NumCPU())))
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	return res.exitCode()
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }
