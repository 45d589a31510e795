package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

// Per-layer numbers, measured from outside. The layers cannot be opened,
// so after the timed phase the traced run calls each lower layer's public
// function itself, on the same inputs and weights, with a span around
// every call: the engine's StepInto, then nn's Stream.Step, then the
// step rebuilt from tensor's kernels (checked bit for bit against
// StepInto, so it is the same work), and likewise for the compiler's
// packed programs, the scheduler, the HTTP handler and the socket.

// tensorStepper is the model's timestep rebuilt from internal/tensor's
// public kernels: per GRU layer two bias copies, two MatVecAdd and one
// GRUEpilogue, then the classifier's MatVecAdd and a Softmax.
type tensorStepper struct {
	grus      []*nn.GRU
	out       *nn.Dense
	h, ax, ah [][]float32
	logits    []float32
	post      []float32
	fast      bool
}

func newTensorStepper(m *nn.Model, fast bool) (*tensorStepper, error) {
	s := &tensorStepper{fast: fast}
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *nn.GRU:
			s.grus = append(s.grus, v)
			s.h = append(s.h, make([]float32, v.Hidden))
			s.ax = append(s.ax, make([]float32, 3*v.Hidden))
			s.ah = append(s.ah, make([]float32, 3*v.Hidden))
		case *nn.Dense:
			s.out = v
		default:
			return nil, fmt.Errorf("tensor replay: unsupported layer %T", l)
		}
	}
	if s.out == nil {
		return nil, fmt.Errorf("tensor replay: model has no classifier")
	}
	s.logits = make([]float32, s.out.OutDimN)
	s.post = make([]float32, s.out.OutDimN)
	return s, nil
}

func (s *tensorStepper) reset() {
	for _, h := range s.h {
		tensor.ZeroVec(h)
	}
}

// step advances one frame and returns the nanoseconds spent in the
// matrix-vector products, the gate epilogues and the softmax.
func (s *tensorStepper) step(rec *recorder, parent int32, x []float32) (gemv, epi, sm int64) {
	mv, ep, soft := tensor.MatVecAdd, tensor.GRUEpilogue, tensor.Softmax
	mvOp, epOp, smOp := "MatVecAdd", "GRUEpilogue", "Softmax"
	if s.fast {
		mv, ep, soft = tensor.MatVecAddFast, tensor.GRUEpilogueFast, tensor.SoftmaxFast
		mvOp, epOp, smOp = "MatVecAddFast", "GRUEpilogueFast", "SoftmaxFast"
	}
	in := x
	for l, g := range s.grus {
		copy(s.ax[l], g.Bx.W.Data)
		id := rec.begin(parent, "tensor", mvOp)
		mv(s.ax[l], g.Wx.W, in)
		gemv += rec.end(id)
		copy(s.ah[l], g.Bh.W.Data)
		id = rec.begin(parent, "tensor", mvOp)
		mv(s.ah[l], g.Wh.W, s.h[l])
		gemv += rec.end(id)
		id = rec.begin(parent, "tensor", epOp)
		ep(s.h[l], s.ax[l], s.ah[l])
		epi += rec.end(id)
		in = s.h[l]
	}
	copy(s.logits, s.out.Bias.W.Data)
	id := rec.begin(parent, "tensor", mvOp)
	mv(s.logits, s.out.Weight.W, in)
	gemv += rec.end(id)
	id = rec.begin(parent, "tensor", smOp)
	soft(s.post, s.logits)
	sm = rec.end(id)
	return gemv, epi, sm
}

// samples collects replay measurements per metric, already in the
// metric's unit.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// reps sizes a replay loop to about budget seconds at costNs per call.
func reps(costNs, budgetS float64, lo, hi int) int {
	n := int(budgetS * 1e9 / max(costNs, 1))
	return max(lo, min(n, hi))
}

// frameCursor walks the utterances frame by frame.
type frameCursor struct {
	utts [][][]float32
	u, t int
}

// next returns the next frame and whether it starts an utterance.
func (c *frameCursor) next() (x []float32, first bool) {
	x, first = c.utts[c.u][c.t], c.t == 0
	if c.t++; c.t == len(c.utts[c.u]) {
		c.t, c.u = 0, (c.u+1)%len(c.utts)
	}
	return x, first
}

// eachFrame calls fn for n frames, cycling through the utterances.
func eachFrame(utts [][][]float32, n int, fn func(x []float32)) {
	cur := frameCursor{utts: utts}
	for k := 0; k < n; k++ {
		x, _ := cur.next()
		fn(x)
	}
}

// replayBlock is how many consecutive frames one layer replays before
// the next layer takes its turn.
const replayBlock = 16

// replaySteps measures one model's single-stream step at every layer,
// over the same n frames: rtmobile.stepinto_us, nn.step_us and the
// tensor.* sums per frame. The layers take turns in blocks of 16 frames.
// Frame by frame was wrong: the engine's mapped weights and the
// in-memory model's are two copies, and alternating between them pushed
// each other out of the last-level cache (StepInto read 25 % slower than
// in the timed phase). One whole pass per layer was wrong too: the host
// drifts by 10 % within seconds, and the layers are compared with each
// other.
func replaySteps(s samples, eng *rtmobile.Engine, model *nn.Model, utts [][][]float32, n int, rec *recorder) error {
	st, posts := eng.NewStream(), make([][]float32, n)
	nnSt := model.NewStream()
	exact, err := newTensorStepper(model, false)
	if err != nil {
		return err
	}
	fast, _ := newTensorStepper(model, true)
	var diverged error
	tensorStep := func(ts *tensorStepper, op, suffix string) func(int, []float32, bool) {
		return func(k int, x []float32, first bool) {
			if first {
				ts.reset()
			}
			id := rec.begin(0, "bench", op)
			gemv, epi, sm := ts.step(rec, id, x)
			rec.end(id)
			s.add("tensor.gemv"+suffix, float64(gemv)/1e3)
			s.add("tensor.epilogue"+suffix, float64(epi)/1e3)
			if ts.fast {
				return
			}
			s.add("tensor.softmax_us", float64(sm)/1e3)
			if diverged == nil && !equalRow(ts.post, posts[k]) {
				diverged = fmt.Errorf("frame %d: the step rebuilt from tensor kernels differs from Stream.StepInto", k)
			}
		}
	}
	layers := []func(k int, x []float32, first bool){
		func(k int, x []float32, first bool) {
			if first {
				st.Reset()
			}
			posts[k] = make([]float32, eng.OutputDim())
			id := rec.begin(0, "rtmobile", "Stream.StepInto")
			st.StepInto(posts[k], x)
			s.add("rtmobile.stepinto_us", float64(rec.end(id))/1e3)
		},
		func(k int, x []float32, first bool) {
			if first {
				nnSt.Reset()
			}
			id := rec.begin(0, "nn", "Stream.Step")
			nnSt.Step(x)
			s.add("nn.step_us", float64(rec.end(id))/1e3)
		},
		tensorStep(exact, "tensor_step", "_us"),
		tensorStep(fast, "tensor_step_fast", "_fast_us"),
	}
	cursors := make([]frameCursor, len(layers))
	for i := range cursors {
		cursors[i].utts = utts
	}
	for lo := 0; lo < n; lo += replayBlock {
		for i, step := range layers {
			for k := lo; k < min(lo+replayBlock, n); k++ {
				x, first := cursors[i].next()
				step(k, x, first)
			}
		}
	}
	return diverged
}

// filled returns an n-vector of a value that keeps every kernel on its
// ordinary path (no zeros to skip, no denormals).
func filled(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = 0.5
	}
	return x
}

// packedModel is the model's weight matrices lowered to packed programs
// the way the bundle writer lowers them.
type packedModel struct {
	progs             []*compiler.PackedProgram
	compileMs, packMs float64
	macs, bytes       int
}

func packModel(model *nn.Model, scheme prune.BSP, opt compiler.Options, rec *recorder) (*packedModel, error) {
	pm := &packedModel{}
	threads := device.MobileCPU().Threads()
	for _, src := range rtmobile.ModelSources(model, scheme, opt.Format) {
		id := rec.begin(0, "compiler", "CompileProgram")
		prog, err := compiler.CompileProgram(src, opt, threads)
		pm.compileMs += float64(rec.end(id)) / 1e6
		if err != nil {
			return nil, err
		}
		id = rec.begin(0, "compiler", "Pack")
		pp, err := compiler.Pack(prog, opt.Tile.Unroll)
		pm.packMs += float64(rec.end(id)) / 1e6
		if err != nil {
			return nil, err
		}
		pm.progs = append(pm.progs, pp)
		pm.macs += pp.TotalMACs()
		pm.bytes += pp.StreamBytes()
	}
	return pm, nil
}

// stepUs runs every program once per step, n steps, at panel width bw,
// and returns the per-step sums in microseconds.
func (pm *packedModel) stepUs(n, bw int, rec *recorder) ([]float64, error) {
	var xs, ys [][]float32
	var scratch []*compiler.PackedScratch
	for _, pp := range pm.progs {
		xs, ys = append(xs, filled(pp.Cols*bw)), append(ys, make([]float32, pp.Rows*bw))
		scratch = append(scratch, pp.NewScratch())
	}
	out := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		var ns int64
		for i, pp := range pm.progs {
			var err error
			if bw == 1 {
				id := rec.begin(0, "compiler", "PackedProgram.Run")
				err = pp.Run(ys[i], xs[i], scratch[i])
				ns += rec.end(id)
			} else {
				id := rec.begin(0, "compiler", "PackedProgram.RunBatch")
				err = pp.RunBatch(ys[i], xs[i], bw, scratch[i])
				ns += rec.end(id)
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, float64(ns)/1e3)
	}
	return out, nil
}

// replayBatch8 measures the width-8 panel path at the tensor and nn
// layers.
func replayBatch8(s samples, model *nn.Model, utts [][][]float32, n int, rec *recorder) {
	const bw = batchLanes
	var ws []*tensor.Matrix
	for _, p := range model.WeightMatrices() {
		ws = append(ws, p.W)
	}
	var xs, ys [][]float32
	for _, w := range ws {
		xs, ys = append(xs, filled(w.Cols*bw)), append(ys, make([]float32, w.Rows*bw))
	}
	bs := model.NewBatchStream(bw)
	panel := make([]float32, model.Spec.InputDim*bw)
	for k := 0; k < n; k++ {
		t := k % len(utts[0])
		for l := 0; l < bw; l++ {
			for i, v := range utts[l][t] {
				panel[i*bw+l] = v
			}
		}
		id := rec.begin(0, "nn", "BatchStream.StepBatch")
		bs.StepBatch(panel)
		s.add("nn.batch_step_us", float64(rec.end(id))/1e3/bw)
		var ns int64
		for i, w := range ws {
			id = rec.begin(0, "tensor", "MatVecAddBatch")
			tensor.MatVecAddBatch(ys[i], w, xs[i], bw)
			ns += rec.end(id)
		}
		s.add("tensor.gemv_batch8_us", float64(ns)/1e3)
	}
}

// serverSnap is the server's own counters, read over HTTP from
// /metrics.json and /slo.
type serverSnap struct {
	queueWaitNs, queueWaitN float64
	latencyNs, latencyN     float64
	lanes, steps            float64
	rejected                float64
	sloGood, sloTotal       float64
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func fetchServerSnap(stack *serveStack) (serverSnap, error) {
	type hist struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum_ns"`
	}
	var m struct {
		QueueWait hist    `json:"rtmobile_sched_queue_wait_ns"`
		Latency   hist    `json:"rtmobile_sched_latency_ns"`
		Lanes     hist    `json:"rtmobile_sched_lane_occupancy"`
		Rejected  float64 `json:"rtmobile_sched_rejected_total"`
	}
	if err := getJSON(stack.client, stack.ts.URL+"/metrics.json", &m); err != nil {
		return serverSnap{}, err
	}
	var slo obs.SLOReport
	if err := getJSON(stack.client, stack.ts.URL+"/slo", &slo); err != nil {
		return serverSnap{}, err
	}
	return serverSnap{
		queueWaitNs: m.QueueWait.Sum, queueWaitN: m.QueueWait.Count,
		latencyNs: m.Latency.Sum, latencyN: m.Latency.Count,
		lanes: m.Lanes.Sum, steps: m.Lanes.Count,
		rejected: m.Rejected,
		sloGood:  float64(slo.TotalGood), sloTotal: float64(slo.TotalRequests),
	}, nil
}

// serverView is the server's counters over one phase, beside what the
// client saw of the same phase.
type serverView struct {
	before, delta    serverSnap
	clientAttainment float64
	clientMeanMs     float64 // mean latency, from the scheduled send
	clientLateMs     float64 // mean wait between the scheduled and the actual send
	err              error
}

func (v *serverView) begin(stack *serveStack) { v.before, v.err = fetchServerSnap(stack) }

func (v *serverView) end(stack *serveStack, p *phase, sloNs float64) {
	after, err := fetchServerSnap(stack)
	if v.err == nil {
		v.err = err
	}
	b := v.before
	v.delta = serverSnap{
		after.queueWaitNs - b.queueWaitNs, after.queueWaitN - b.queueWaitN,
		after.latencyNs - b.latencyNs, after.latencyN - b.latencyN,
		after.lanes - b.lanes, after.steps - b.steps,
		after.rejected - b.rejected,
		after.sloGood - b.sloGood, after.sloTotal - b.sloTotal,
	}
	within := 0
	for i, ns := range p.latNs {
		if p.ok[i] && ns <= sloNs {
			within++
		}
	}
	v.clientAttainment = float64(within) / float64(len(p.latNs))
	v.clientMeanMs, v.clientLateMs = mean(p.latNs)/1e6, mean(p.lateNs)/1e6
}

func (v *serverView) values(out values) {
	d := v.delta
	out["sched.queue_wait_ms_mean"] = ratio(d.queueWaitNs, d.queueWaitN) / 1e6
	out["sched.batch_width_mean"] = ratio(d.lanes, d.steps)
	out["sched.rejected"] = d.rejected
	out["serve.server_slo_attainment"] = ratio(d.sloGood, d.sloTotal)
	gap := out["serve.server_slo_attainment"] - v.clientAttainment
	out["serve.slo_gap"] = max(gap, -gap)
}

// replayServe measures the registry, the scheduler and the HTTP tier on
// a fresh stack over the deployment's bundle, with one 20-frame request.
// view, when not yet filled by the timed phase, is filled from the
// closed-loop socket replay.
func replayServe(s samples, out values, dep *deployment, eng *rtmobile.Engine, in *inputs, stepNs float64, nproc int, view *serverView, timed bool, rec *recorder) error {
	w := dep.w
	stack, err := newServeStack(dep.bundlePath, int64(w.limitNs(serveFrames)), nproc)
	if err != nil {
		return err
	}
	defer stack.close()
	out["registry.register_ms"] = stack.registerS * 1e3

	for k := 0; k < 500; k++ {
		id := rec.begin(0, "registry", "Acquire+Release")
		l, err := stack.reg.Acquire("default")
		if err != nil {
			return err
		}
		l.Release()
		s.add("registry.acquire_ns", float64(rec.end(id)))
	}

	frames, want, body := in.utts[0][:serveFrames], in.refs[0][:serveFrames], in.bodies[0]
	lease, err := stack.reg.Acquire("default")
	if err != nil {
		return err
	}
	defer lease.Release()
	dst := make([][]float32, serveFrames)
	for t := range dst {
		dst[t] = make([]float32, eng.OutputDim())
	}
	handle := func() *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		stack.srv.Mux().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		return rw
	}

	// One request at a time through each tier in turn, so that a drift of
	// the host lands on all four and their differences stay meaningful.
	// The server's counters over this loop stand in for a timed phase on
	// the workloads that have no server in theirs.
	n := reps(4*(serveFrames*stepNs+3e6), 4, 10, 100)
	client := &phase{}
	observe := func(ns float64, ok bool) {
		client.latNs, client.ok = append(client.latNs, ns), append(client.ok, ok)
	}
	if !timed {
		view.begin(stack)
	}
	for k := 0; k < n; k++ {
		id := rec.begin(0, "rtmobile", "Engine.Infer")
		post := eng.Infer(frames)
		s.add("rtmobile.infer_req_ms", float64(rec.end(id))/1e6)
		if !equalRows(post, want) {
			return fmt.Errorf("Engine.Infer differs from the oracle")
		}

		id = rec.begin(0, "sched", "Scheduler.InferInto")
		err := lease.Scheduler().InferInto(context.Background(), dst, frames)
		s.add("sched.infer_ms", float64(rec.end(id))/1e6)
		if err != nil || !equalRows(dst, want) {
			return fmt.Errorf("Scheduler.InferInto: err=%v, or output differs from the oracle", err)
		}

		id = rec.begin(0, "serve", "Mux.ServeHTTP")
		rw := handle()
		ns := float64(rec.end(id))
		s.add("serve.handler_ms", ns/1e6)
		observe(ns, rw.Code == http.StatusOK && equalJSONRows(rw.Body.Bytes(), want))
		out["serve.resp_bytes"] = float64(rw.Body.Len())

		id = rec.begin(0, "serve", "POST /infer")
		resp, status, err := postInfer(stack.client, stack.ts.URL, body)
		ns = float64(rec.end(id))
		s.add("serve.http_ms", ns/1e6)
		observe(ns, err == nil && status == http.StatusOK && equalJSONRows(resp, want))
	}
	if !timed {
		view.end(stack, client, w.limitNs(serveFrames))
	}
	if client.failed() > 0 {
		return fmt.Errorf("%d of %d /infer requests (handler and socket) failed the oracle", client.failed(), 2*n)
	}
	out["serve.req_bytes"] = float64(len(body))
	m0 := mallocs()
	for k := 0; k < 20; k++ {
		handle()
	}
	out["serve.allocs_per_req"] = float64(mallocs()-m0) / 20

	var decoded [][]float32
	for k := 0; k < 200; k++ {
		id := rec.begin(0, "serve", "json.Decode")
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&decoded)
		s.add("serve.json_decode_us", float64(rec.end(id))/1e3)
		if err != nil {
			return err
		}
		id = rec.begin(0, "serve", "json.Encode")
		err = json.NewEncoder(io.Discard).Encode(want)
		s.add("serve.json_encode_us", float64(rec.end(id))/1e3)
		if err != nil {
			return err
		}
	}
	return nil
}

// opAllocs is heap allocations per frame of the workload's own op, once
// a first call has filled whatever the engine caches.
func opAllocs(w workload, eng *rtmobile.Engine, in *inputs, stepNs float64) float64 {
	var op func(k int) (frames int)
	n := 20
	switch w.kind {
	case opStream:
		r := newStreamRunner(eng, in)
		op, n = func(k int) int { r.run(k); return 1 }, reps(stepNs, 0.3, 50, 2000)
	case opBatch:
		b := newBatchRunner(eng, in)
		op, n = func(k int) int { b.run(k); return b.frames(k) }, 3
	default:
		op = func(int) int { return len(eng.Infer(in.utts[0][:serveFrames])) }
	}
	op(0)
	frames, m0 := 0, mallocs()
	for k := 1; k <= n; k++ {
		frames += op(k)
	}
	return float64(mallocs()-m0) / float64(frames)
}

// replayPaper measures the 2x1024 paper-scale point at the workload's
// rate: kept visible, not gated (on the reference host it sits on a
// cache cliff).
func replayPaper(s samples, w workload, utts [][][]float32, rec *recorder) error {
	spec := nn.PaperGRUSpec()
	if w.paperHidden != 0 {
		spec.Hidden = w.paperHidden
	}
	model := nn.NewModel(spec)
	pruned := rtmobile.Prune(model, nil, w.pruneConfig())
	eng, err := rtmobile.Compile(model, pruned.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		return err
	}
	st, dst := eng.NewStream(), make([]float32, eng.OutputDim())
	eachFrame(utts, 60, func(x []float32) {
		id := rec.begin(0, "rtmobile", "Stream.StepInto@2x1024")
		st.StepInto(dst, x)
		s.add("paper.stepinto_us", float64(rec.end(id))/1e3)
	})
	pm, err := packModel(model, pruned.Scheme, eng.Plan().Options, nil)
	if err != nil {
		return err
	}
	s["paper.packed_step_us"], err = pm.stepUs(200, 1, rec)
	return err
}

// obsOverheadPct is what obs collection adds to a step: the same stream
// with collection off and on, in alternating blocks, untraced.
func obsOverheadPct(eng *rtmobile.Engine, utts [][][]float32, stepNs float64) float64 {
	was := obs.Enabled()
	defer obs.SetEnabled(was)
	st, dst := eng.NewStream(), make([]float32, eng.OutputDim())
	var off, on []float64
	block := reps(stepNs, 0.3, 50, 5000)
	for round := 0; round < 3; round++ {
		for _, enabled := range []bool{false, true} {
			obs.SetEnabled(enabled)
			eachFrame(utts, block, func(x []float32) {
				t0 := time.Now()
				st.StepInto(dst, x)
				ns := float64(time.Since(t0).Nanoseconds())
				if enabled {
					on = append(on, ns)
				} else {
					off = append(off, ns)
				}
			})
		}
	}
	return 100 * (p05(on)/p05(off) - 1)
}

// replayLayers produces every per-layer metric of a traced run.
func replayLayers(dep *deployment, in *inputs, plain, traced *phase, view serverView, nproc int, rec *recorder) (values, error) {
	w := dep.w
	out, s := values{}, samples{}
	open := w.kind == opServe

	e2ePlain, e2eTraced := p05(plain.perFrameUs()), p05(traced.perFrameUs())
	out["bench.trace_overhead_pct"] = 100 * (e2eTraced/e2ePlain - 1)
	out["bench.ops"], out["bench.frames"] = float64(len(traced.latNs)), float64(traced.totalFrames())
	out["bench.latency_ms_p50"] = median(traced.latNs) / 1e6
	out["bench.latency_ms_p99"] = quantile(traced.latNs, 0.99) / 1e6
	out["bench.gen_late_ms_p99"] = quantile(traced.lateNs, 0.99) / 1e6
	out["bench.steal_pct"] = traced.stealPct
	out["bench.seg_iqr_pct"] = 100 * quartileSpread(traced.segmentRTF(open))

	out["prune.project_ms"] = dep.pruneS * 1e3
	out["prune.achieved_rate"] = dep.pruned.CompressionRate()
	out["rtmobile.save_bundle_ms"] = dep.saveS * 1e3
	out["rtmobile.bundle_mb"] = dep.bundleMB

	// Every engine-level replay runs on a fresh mapping of the bundle.
	id := rec.begin(0, "rtmobile", "MapBundle")
	mb, err := rtmobile.MapBundle(dep.bundlePath, device.MobileCPU())
	out["rtmobile.map_bundle_ms"] = float64(rec.end(id)) / 1e6
	if err != nil {
		return nil, err
	}
	defer mb.Close()
	eng, model := mb.Engine(), referenceModel(w)

	probe := samples{}
	if err := replaySteps(probe, eng, model, in.utts, 5, newRecorder()); err != nil {
		return nil, err
	}
	stepNs := median(probe["rtmobile.stepinto_us"]) * 1e3

	if err := replaySteps(s, eng, model, in.utts, reps(4*stepNs, 4, 50, 400), rec); err != nil {
		return nil, err
	}
	replayBatch8(s, model, in.utts, reps(3*batchLanes*stepNs, 2, 20, 200), rec)

	opt := eng.Plan().Options
	pm, err := packModel(model, dep.pruned.Scheme, opt, rec)
	if err != nil {
		return nil, err
	}
	out["compiler.compile_ms"], out["compiler.pack_ms"] = pm.compileMs, pm.packMs
	out["compiler.macs_per_step"], out["compiler.weight_bytes"] = float64(pm.macs), float64(pm.bytes)
	if s["compiler.packed_step_us"], err = pm.stepUs(400, 1, rec); err != nil {
		return nil, err
	}
	if s["compiler.packed_batch8_step_us"], err = pm.stepUs(200, batchLanes, rec); err != nil {
		return nil, err
	}

	br := newBatchRunner(eng, in)
	for k := 0; k < reps(60*stepNs, 1.5, 4, 40); k++ {
		id := rec.begin(0, "rtmobile", "Engine.InferBatchInto")
		br.run(k)
		s.add("rtmobile.infer_batch_ms", float64(rec.end(id))/1e6)
	}
	out["rtmobile.allocs_per_frame"] = opAllocs(w, eng, in, stepNs)

	// At least two workers, or there is no fork and no join to time.
	pool := parallel.NewPool(max(2, w.workers(nproc)))
	noop := func(int) {}
	m0 := mallocs()
	for k := 0; k < 2000; k++ {
		id := rec.begin(0, "parallel", "Pool.For")
		pool.For(pool.Workers(), noop)
		s.add("parallel.forkjoin_us", float64(rec.end(id))/1e3)
	}
	out["parallel.forkjoin_allocs"] = float64(mallocs()-m0) / 2000
	pool.Close()

	if err := replayServe(s, out, dep, eng, in, stepNs, nproc, &view, open, rec); err != nil {
		return nil, err
	}
	if view.err != nil {
		return nil, fmt.Errorf("reading the server's /metrics.json and /slo: %w", view.err)
	}
	view.values(out)

	rng := tensor.NewRNG(in.seed)
	wave, _ := speech.SynthUtterance(speech.SampleSentence(rng, 14), speech.NewSpeaker(rng, 0), rng)
	ex := speech.NewExtractor(speech.DefaultFeatureConfig())
	for k := 0; k < 5; k++ {
		id := rec.begin(0, "speech", "Extractor.Features")
		feats := ex.Features(wave)
		s.add("speech.mfcc_us_per_frame", float64(rec.end(id))/1e3/float64(len(feats)))
	}

	if err := replayPaper(s, w, in.utts, rec); err != nil {
		return nil, err
	}
	// Last, because switching collection on installs a zeroed instrument set.
	out["obs.metrics_overhead_pct"] = obsOverheadPct(eng, in.utts, stepNs)

	for name, xs := range s {
		out[name] = p05(xs)
	}
	out["rtmobile.wrapper_self_us"] = out["rtmobile.stepinto_us"] - out["nn.step_us"] - out["tensor.softmax_us"]
	out["sched.overhead_ms"] = out["sched.infer_ms"] - out["rtmobile.infer_req_ms"]
	out["serve.overhead_ms"] = out["serve.http_ms"] - out["sched.infer_ms"]
	out["device.model_step_us"] = eng.Latency().TotalUS / rtmobile.TimestepsPerFrame
	out["device.model_error_ratio"] = ratio(out["device.model_step_us"], out["rtmobile.stepinto_us"])

	// The budget: what the layers account for, against what the timed
	// phase saw end to end.
	var e2e, layers float64
	switch w.kind {
	case opStream:
		tensorUs := out["tensor.gemv_us"] + out["tensor.epilogue_us"] + out["tensor.softmax_us"]
		nnSelf := max(0, out["nn.step_us"]-out["tensor.gemv_us"]-out["tensor.epilogue_us"])
		e2e, layers = e2eTraced, tensorUs+nnSelf+max(0, out["rtmobile.wrapper_self_us"])
	case opBatch:
		e2e, layers = p05(traced.latNs)/1e6, out["rtmobile.infer_batch_ms"]
	case opServe:
		// Means here: the server publishes sums and counts, not percentiles.
		// The generator's own lateness is a layer too: it is charged to
		// the request.
		schedMs := ratio(view.delta.latencyNs, view.delta.latencyN) / 1e6
		e2e, layers = view.clientMeanMs, view.clientLateMs+schedMs+mean(s["serve.http_ms"])-mean(s["sched.infer_ms"])
	}
	out["bench.budget_residual_pct"] = 100 * (e2e - layers) / e2e
	return out, nil
}
