package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"rtmobile/internal/bench"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
	"rtmobile/internal/serve"
	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

type opKind int

const (
	opStream opKind = iota // one Stream.StepInto, closed loop
	opBatch                // one Engine.InferBatchInto over 8 ragged utterances, closed loop
	opServe                // one POST /infer of 20 frames, open-loop Poisson
)

// frameSeconds is the audio one feature frame covers (the 10 ms hop).
const frameSeconds = 0.010

// workload is one set of inputs and the deployment they run against.
// The names are final: later changes are judged per (workload, metric).
type workload struct {
	name string
	why  string
	kind opKind
	// The model: 39 -> hidden x layers -> 39 GRU, BSP-projected at
	// colRate x rowRate. Weights keep a fixed Spec.Seed; only inputs
	// follow -seed.
	hidden, layers   int
	colRate, rowRate float64
	// multiWorker selects min(nproc-1, 4) pool workers (at least 1);
	// otherwise 1, which keeps fork-join scheduling out of a kernel
	// measurement.
	multiWorker bool
	// paperHidden, when not 0, replaces the paper's hidden size of 1024
	// in the traced run's paper-scale replay (the unit tests shrink it).
	paperHidden int
}

const (
	batchLanes  = 8
	batchMinLen = 16
	batchMaxLen = 48
	uttFrames   = batchMaxLen // frames kept per utterance: bounds the oracle's reference pass
	serveFrames = 20
	serveRate   = 50.0 // requests per second offered on serve_open
)

var workloads = []workload{
	{
		name: "stream_10x", kind: opStream, hidden: 512, layers: 2, colRate: 10, rowRate: 1,
		why: "one live stream at BSP 10x, 1 worker: the paper's single-stream latency where GEMV work is ~97% of the step",
	},
	{
		name: "stream_245x", kind: opStream, hidden: 512, layers: 2, colRate: 20, rowRate: 12.25,
		why: "same at the paper's saturation rate: with compiled kernels epilogue/softmax/dispatch should dominate; today it should equal stream_10x",
	},
	{
		name: "batch_offline", kind: opBatch, hidden: 512, layers: 2, colRate: 10, rowRate: 1, multiWorker: true,
		why: "8 ragged utterances per InferBatchInto on min(nproc-1,4) workers: the panel, Retire and fork-join path the streams never touch",
	},
	{
		name: "serve_open", kind: opServe, hidden: 64, layers: 1, colRate: 4, rowRate: 1, multiWorker: true,
		why: "open-loop Poisson 50 req/s of 20-frame JSON /infer on a small model: serve, sched, JSON and registry do most of the work, kernels ~15%",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the size of the worker pool. A multi-worker workload
// leaves one processor to the harness, the Go runtime and the host: with
// every processor in the fork-join, whatever else the host ran stalled
// every join, and 3 runs in 10 of batch_offline read 10-45 % slower on
// the same binary.
func (w workload) workers(nproc int) int {
	if !w.multiWorker {
		return 1
	}
	return max(1, min(nproc-1, 4))
}

// serveSLONs is the latency limit of one 20-frame /infer request.
const serveSLONs = 50e6

// limitNs is the latency limit of one op that scores the given number of
// frames: real time for that much audio on the closed loops (10 ms per
// frame), 50 ms on serve_open.
func (w workload) limitNs(frames int) float64 {
	if w.kind == opServe {
		return serveSLONs
	}
	return float64(frames) * frameSeconds * 1e9
}

func (w workload) spec() nn.ModelSpec {
	s := nn.PaperGRUSpec()
	s.Hidden, s.NumLayers = w.hidden, w.layers
	return s
}

func (w workload) pruneConfig() rtmobile.PruneConfig {
	return rtmobile.PruneConfig{ColRate: w.colRate, RowRate: w.rowRate}
}

// batchOp is one batch_offline op: which utterance sits in which lane,
// and how many of its frames are scored.
type batchOp struct {
	utt, frames [batchLanes]int
}

// inputs is everything generated from -seed, plus the oracle's
// reference outputs for it.
type inputs struct {
	seed uint64
	utts [][][]float32 // feature frames per utterance, the first uttFrames of each
	refs [][][]float32 // nn.Posteriors(model.Forward(utt)): what every serving path must reproduce bit for bit

	order   []int     // stream_*: utterance order
	batches []batchOp // batch_offline: the ops, cycled
	bodies  [][]byte  // serve_open: JSON request body per utterance, its first serveFrames frames

	corpusGenS float64
}

// makeInputs derives the run's inputs from the seed: the synthetic
// corpus, the utterance order, the ragged batch shapes and the arrival
// plan. The same seed gives the same inputs bit for bit.
func makeInputs(seed uint64) (*inputs, error) {
	cc := speech.DefaultCorpusConfig()
	cc.Seed = seed
	cc.NumSpeakers, cc.SentencesPerSpeaker = 4, 3
	t0 := time.Now()
	corpus, err := speech.GenerateCorpus(cc)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, corpusGenS: time.Since(t0).Seconds()}
	for _, u := range append(corpus.Train, corpus.Test...) {
		if len(u.Frames) >= uttFrames {
			in.utts = append(in.utts, u.Frames[:uttFrames])
		}
	}
	if len(in.utts) < batchLanes {
		return nil, fmt.Errorf("corpus for seed %d has %d utterances of %d frames, need %d", seed, len(in.utts), uttFrames, batchLanes)
	}
	rng := tensor.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	in.order = rng.Perm(len(in.utts))
	// Every batch op scores the same multiset of lengths, spread evenly
	// over [16, 48], in a seeded lane order over seeded utterances: ops
	// stay comparable (same frames, same longest lane) while the grouping
	// into panels, and so the Retire pattern, varies.
	for i := 0; i < 16; i++ {
		var op batchOp
		lens, utts := rng.Perm(batchLanes), rng.Perm(len(in.utts))
		for l := 0; l < batchLanes; l++ {
			op.utt[l] = utts[l]
			op.frames[l] = batchMinLen + lens[l]*(batchMaxLen-batchMinLen)/(batchLanes-1)
		}
		in.batches = append(in.batches, op)
	}
	for _, u := range in.utts {
		b, err := json.Marshal(u[:serveFrames])
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

// arrivalPlan is the open-loop schedule: bench.LoadgenSchedule's seeded
// Poisson process, conditioned on its count. It draws the process over a
// longer horizon, keeps the first n+1 = rate*seconds+1 arrivals and
// scales time so that arrival n+1 lands on the end of the phase; the n
// kept arrivals are then exactly a Poisson process given that n fell in
// the phase. A fixed count keeps the offered load, and so rtf, from
// moving ~3 % with the seed.
func arrivalPlan(seed uint64, nUtts int, rate, seconds float64) []bench.Arrival {
	n := int(rate*seconds + 0.5)
	horizon := time.Duration(2 * seconds * float64(time.Second))
	plan := bench.LoadgenSchedule(seed, nUtts, rate, horizon)
	for len(plan) <= n { // a draw this sparse has probability ~1e-30 at n >= 50; double until it fits
		horizon *= 2
		plan = bench.LoadgenSchedule(seed, nUtts, rate, horizon)
	}
	scale := seconds * 1e9 / float64(plan[n].AtNs)
	plan = plan[:n]
	for i := range plan {
		plan[i].AtNs = int64(float64(plan[i].AtNs) * scale)
	}
	return plan
}

// referenceModel builds the in-memory pruned model the oracle scores
// with. It is bit-identical to the one every set-up builds (fixed
// Spec.Seed, deterministic projection) but shares no object with the
// deployment under test.
func referenceModel(w workload) *nn.Model {
	m := nn.NewModel(w.spec())
	rtmobile.Prune(m, nil, w.pruneConfig())
	return m
}

func (in *inputs) computeRefs(m *nn.Model) {
	in.refs = make([][][]float32, len(in.utts))
	for i, u := range in.utts {
		in.refs[i] = nn.Posteriors(m.Forward(u))
	}
}

// equalRows reports whether got is bit-equal to want, row for row.
func equalRows(got, want [][]float32) bool {
	if len(got) != len(want) {
		return false
	}
	for t := range want {
		if !equalRow(got[t], want[t]) {
			return false
		}
	}
	return true
}

func equalRow(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// deployment is one set-up of the system under test: the model pruned,
// compiled, saved as a v5 bundle and loaded back the way `rtmobile run`
// and `rtmobile serve` load it.
type deployment struct {
	w          workload
	pruned     rtmobile.PruneResult
	bundlePath string
	bundleMB   float64

	mapped *rtmobile.MappedBundle // stream_*, batch_offline
	eng    *rtmobile.Engine
	closed closedOp    // their closed-loop driver, see runner
	stack  *serveStack // serve_open

	// Stage durations of this set-up, in seconds.
	pruneS, compileS, saveS, loadS float64
}

func (d *deployment) close() {
	if d.stack != nil {
		d.stack.close()
	}
	if d.mapped != nil {
		d.mapped.Close()
	}
	os.Remove(d.bundlePath)
}

// serveStack is the serving tier over one bundle: registry, scheduler
// (inside the registry), serve mux, loopback HTTP server and a
// keep-alive client, wired with the `rtmobile serve` defaults.
type serveStack struct {
	reg    *registry.Registry
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	// registerS is how long registry.Register took.
	registerS float64
}

func newServeStack(bundlePath string, sloNs int64, conns int) (*serveStack, error) {
	reg, err := registry.New(registry.Config{
		Loader: registry.BundleLoader(device.MobileCPU()),
		Sched:  sched.Config{MaxBatch: 8, Window: 2 * time.Millisecond, QueueDepth: 64},
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := reg.Register("default", bundlePath); err != nil {
		return nil, fmt.Errorf("register %s: %w", bundlePath, err)
	}
	registerS := time.Since(t0).Seconds()
	// The server judges requests by the workload's own limit, so that
	// serve.slo_gap compares like with like.
	slo, err := obs.NewSLO(obs.SLOConfig{LatencyNs: sloNs, Target: serve.DefaultSLOTarget})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Registry: reg, SLO: slo})
	ts := httptest.NewServer(srv.Mux())
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   10 * time.Second,
	}
	return &serveStack{reg: reg, srv: srv, ts: ts, client: client, registerS: registerS}, nil
}

func (s *serveStack) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.reg.Close(context.Background())
}

// outDir is where bundles and traces are written: inside the
// benchmark's own directory, relative to the checkout root the
// benchmark is run from. Tests point it at a temporary directory.
var outDir = "benchmark/out"

// setUp builds one deployment and produces its first verified output.
// rec, when tracing, gets one span per call into a layer.
func setUp(w workload, in *inputs, nproc int, rec *recorder) (*deployment, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{w: w}
	root := rec.begin(0, "bench", "setup")
	defer rec.end(root)

	id := rec.begin(root, "nn", "NewModel")
	model := nn.NewModel(w.spec())
	rec.end(id)

	id = rec.begin(root, "prune", "Prune")
	t0 := time.Now()
	d.pruned = rtmobile.Prune(model, nil, w.pruneConfig())
	d.pruneS = time.Since(t0).Seconds()
	rec.end(id)

	id = rec.begin(root, "rtmobile", "Compile")
	t0 = time.Now()
	eng, err := rtmobile.Compile(model, d.pruned.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU()})
	d.compileS = time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin(root, "rtmobile", "SaveBundleVersion")
	t0 = time.Now()
	d.bundlePath, err = saveBundle(eng, d.pruned, w.name)
	d.saveS = time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(d.bundlePath); err == nil {
		d.bundleMB = float64(st.Size()) / (1 << 20)
	}

	t0 = time.Now()
	if w.kind == opServe {
		id = rec.begin(root, "registry", "Register")
		d.stack, err = newServeStack(d.bundlePath, serveSLONs, nproc)
	} else {
		id = rec.begin(root, "rtmobile", "MapBundle")
		d.mapped, err = rtmobile.MapBundle(d.bundlePath, device.MobileCPU())
	}
	d.loadS = time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		d.close()
		return nil, err
	}
	if d.mapped != nil {
		d.eng = d.mapped.Engine()
	}

	id = rec.begin(root, "bench", "first_output")
	ok, err := d.firstOutput(in)
	rec.end(id)
	if err == nil && !ok {
		err = fmt.Errorf("%s: first output differs from the oracle", w.name)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func saveBundle(eng *rtmobile.Engine, pr rtmobile.PruneResult, name string) (path string, err error) {
	f, err := os.CreateTemp(outDir, name+"-*.rtmb")
	if err != nil {
		return "", err
	}
	path = f.Name()
	if err = eng.SaveBundleVersion(f, pr.Scheme, 5); err != nil {
		f.Close()
		os.Remove(path)
		return "", err
	}
	if err = f.Close(); err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// firstOutput runs the workload's first op and checks it against the
// oracle.
func (d *deployment) firstOutput(in *inputs) (bool, error) {
	switch d.w.kind {
	case opStream:
		u := in.order[0]
		dst := make([]float32, d.eng.OutputDim())
		d.eng.NewStream().StepInto(dst, in.utts[u][0])
		return equalRow(dst, in.refs[u][0]), nil
	case opBatch:
		b := newBatchRunner(d.eng, in)
		b.run(0)
		return b.verify(0), nil
	default:
		post, status, err := postInfer(d.stack.client, d.stack.ts.URL, in.bodies[0])
		if err != nil {
			return false, err
		}
		if status != http.StatusOK {
			return false, fmt.Errorf("first /infer answered %d", status)
		}
		return equalJSONRows(post, in.refs[0][:serveFrames]), nil
	}
}
