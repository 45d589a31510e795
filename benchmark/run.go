package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"rtmobile/internal/bench"
	"rtmobile/internal/rtmobile"
)

// phase is what one timed phase measured, one entry per op.
type phase struct {
	latNs  []float64 // closed loop: op duration; open loop: completion minus the *scheduled* send
	frames []int
	ok     []bool    // output matched the oracle
	lateNs []float64 // open loop: actual send minus scheduled send
	doneNs []float64 // open loop: completion, from the phase's start

	wallS, cpuS float64
	stealPct    float64
}

// add appends q, a phase that ran after p, to p.
func (p *phase) add(q *phase) {
	p.latNs, p.frames, p.ok = append(p.latNs, q.latNs...), append(p.frames, q.frames...), append(p.ok, q.ok...)
	p.lateNs = append(p.lateNs, q.lateNs...)
	for _, d := range q.doneNs {
		p.doneNs = append(p.doneNs, d+p.wallS*1e9)
	}
	p.stealPct = (p.stealPct*p.wallS + q.stealPct*q.wallS) / (p.wallS + q.wallS)
	p.wallS, p.cpuS = p.wallS+q.wallS, p.cpuS+q.cpuS
}

func (p *phase) totalFrames() int {
	n := 0
	for _, f := range p.frames {
		n += f
	}
	return n
}

// closedOp is a closed-loop workload: op i runs only after op i-1 has
// completed and been verified.
type closedOp interface {
	run(i int)         // the timed call into the system
	verify(i int) bool // oracle check and advance to the next input; not timed
	frames(i int) int
	span() (layer, op string)
}

// streamRunner drives one live stream over the utterances in seeded
// order, resetting state at utterance boundaries.
type streamRunner struct {
	in     *inputs
	st     *rtmobile.Stream
	dst    []float32
	at, fr int // position: index into in.order, frame within that utterance
}

func newStreamRunner(eng *rtmobile.Engine, in *inputs) *streamRunner {
	return &streamRunner{in: in, st: eng.NewStream(), dst: make([]float32, eng.OutputDim())}
}

func (s *streamRunner) run(int) { s.st.StepInto(s.dst, s.in.utts[s.in.order[s.at]][s.fr]) }

func (s *streamRunner) verify(int) bool {
	u := s.in.order[s.at]
	ok := equalRow(s.dst, s.in.refs[u][s.fr])
	if s.fr++; s.fr == len(s.in.utts[u]) {
		s.fr, s.at = 0, (s.at+1)%len(s.in.order)
		s.st.Reset()
	}
	return ok
}

func (s *streamRunner) frames(int) int         { return 1 }
func (s *streamRunner) span() (string, string) { return "rtmobile", "Stream.StepInto" }

// batchRunner scores the seeded ragged batches through InferBatchInto,
// each into its own preallocated destination.
type batchRunner struct {
	eng   *rtmobile.Engine
	in    *inputs
	batch [][][][]float32 // per op: the 8 utterance prefixes
	dst   [][][][]float32 // per op: posterior rows of the same shape
}

func newBatchRunner(eng *rtmobile.Engine, in *inputs) *batchRunner {
	b := &batchRunner{eng: eng, in: in}
	for _, op := range in.batches {
		var batch, dst [][][]float32
		for l := 0; l < batchLanes; l++ {
			batch = append(batch, in.utts[op.utt[l]][:op.frames[l]])
			rows := make([][]float32, op.frames[l])
			for t := range rows {
				rows[t] = make([]float32, eng.OutputDim())
			}
			dst = append(dst, rows)
		}
		b.batch, b.dst = append(b.batch, batch), append(b.dst, dst)
	}
	return b
}

func (b *batchRunner) run(i int) {
	k := i % len(b.batch)
	b.eng.InferBatchInto(b.dst[k], b.batch[k])
}

func (b *batchRunner) verify(i int) bool {
	k := i % len(b.batch)
	op, ok := b.in.batches[k], true
	for l := 0; l < batchLanes; l++ {
		ok = ok && equalRows(b.dst[k][l], b.in.refs[op.utt[l]][:op.frames[l]])
		for _, row := range b.dst[k][l] { // so a stale result cannot pass next time round
			row[0] = -1
		}
	}
	return ok
}

func (b *batchRunner) frames(i int) int {
	n := 0
	for _, f := range b.in.batches[i%len(b.batch)].frames {
		n += f
	}
	return n
}

func (b *batchRunner) span() (string, string) { return "rtmobile", "Engine.InferBatchInto" }

// runner returns the deployment's closed-loop driver, kept across the
// warm-up and the timed phases so the stream carries on where it was.
func (d *deployment) runner(in *inputs) closedOp {
	if d.closed == nil {
		if d.w.kind == opBatch {
			d.closed = newBatchRunner(d.eng, in)
		} else {
			d.closed = newStreamRunner(d.eng, in)
		}
	}
	return d.closed
}

// hostLoad brackets a phase with the process CPU clock and the host's
// steal counter.
type hostLoad struct {
	t0           time.Time
	cpu0         time.Duration
	steal, total float64
}

func startHostLoad() hostLoad {
	h := hostLoad{t0: time.Now(), cpu0: cpuTime()}
	h.steal, h.total = cpuTicks()
	return h
}

func (h hostLoad) stop(p *phase) {
	p.wallS = time.Since(h.t0).Seconds()
	p.cpuS = (cpuTime() - h.cpu0).Seconds()
	steal, total := cpuTicks()
	if total > h.total {
		p.stealPct = 100 * (steal - h.steal) / (total - h.total)
	}
}

// runClosed drives op for d. Traced ops take their duration from their
// span, so that what tracing costs shows in the traced numbers.
func runClosed(op closedOp, d time.Duration, rec *recorder) *phase {
	p := &phase{}
	layer, name := op.span()
	load := startHostLoad()
	for i := 0; time.Since(load.t0) < d; i++ {
		var ns int64
		if rec != nil {
			id := rec.begin(0, layer, name)
			op.run(i)
			ns = rec.end(id)
		} else {
			t0 := time.Now()
			op.run(i)
			ns = time.Since(t0).Nanoseconds()
		}
		p.latNs = append(p.latNs, float64(ns))
		p.frames = append(p.frames, op.frames(i))
		p.ok = append(p.ok, op.verify(i))
	}
	load.stop(p)
	return p
}

// postInfer sends one /infer request and returns the raw response body.
func postInfer(client *http.Client, baseURL string, body []byte) ([]byte, int, error) {
	resp, err := client.Post(baseURL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// equalJSONRows decodes an /infer response and compares it bit for bit
// with the oracle's rows (float32 survives encoding/json exactly).
func equalJSONRows(body []byte, want [][]float32) bool {
	var got [][]float32
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	return equalRows(got, want)
}

// runOpen replays the arrival plan against the server: request i is due
// at plan[i].AtNs whether or not earlier ones have come back. conns
// senders share as many keep-alive connections; when all are busy a due
// request waits, and since latency runs from the due time, the wait is
// charged to it. A 429, a 5xx or a transport error fails the op.
// Responses are kept and checked against the oracle after the phase.
func runOpen(stack *serveStack, in *inputs, plan []bench.Arrival, conns int, rec *recorder) *phase {
	n := len(plan)
	p := &phase{
		latNs: make([]float64, n), frames: make([]int, n), ok: make([]bool, n),
		lateNs: make([]float64, n), doneNs: make([]float64, n),
	}
	bodies := make([][]byte, n)
	due := make(chan int, n) // sized to the plan so the dispatcher never blocks on a busy sender
	var wg sync.WaitGroup
	load := startHostLoad()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				a := plan[i]
				sent := time.Since(load.t0).Nanoseconds()
				id := rec.begin(0, "serve", "POST /infer")
				body, status, err := postInfer(stack.client, stack.ts.URL, in.bodies[a.Utt])
				rec.end(id)
				done := time.Since(load.t0).Nanoseconds()
				p.lateNs[i] = float64(sent - a.AtNs)
				p.latNs[i] = float64(done - a.AtNs)
				p.doneNs[i] = float64(done)
				p.frames[i] = serveFrames
				if err == nil && status == http.StatusOK {
					bodies[i] = body
				}
			}
		}()
	}
	for i, a := range plan {
		if wait := time.Duration(a.AtNs) - time.Since(load.t0); wait > 0 {
			time.Sleep(wait)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	load.stop(p)
	for i, a := range plan {
		p.ok[i] = bodies[i] != nil && equalJSONRows(bodies[i], in.refs[a.Utt][:serveFrames])
	}
	return p
}

const rtfSegments = 20

// segmentRTF splits the phase into 20 parts and returns the real-time
// factor of each. Closed loop: equal op counts, audio seconds per busy
// second. Open loop: equal time slices by completion, audio seconds per
// wall second.
func (p *phase) segmentRTF(open bool) []float64 {
	out := make([]float64, 0, rtfSegments)
	n := len(p.latNs)
	if open {
		audio := make([]float64, rtfSegments)
		slice := p.wallS * 1e9 / rtfSegments
		for i := range p.doneNs {
			if p.ok[i] {
				audio[min(int(p.doneNs[i]/slice), rtfSegments-1)] += float64(p.frames[i]) * frameSeconds
			}
		}
		for _, a := range audio {
			out = append(out, a/(slice/1e9))
		}
		return out
	}
	for s := 0; s < rtfSegments; s++ {
		lo, hi := s*n/rtfSegments, (s+1)*n/rtfSegments
		audio, busy := 0.0, 0.0
		for i := lo; i < hi; i++ {
			if p.ok[i] {
				audio += float64(p.frames[i]) * frameSeconds
			}
			busy += p.latNs[i] / 1e9
		}
		if busy > 0 {
			out = append(out, audio/busy)
		}
	}
	return out
}

// perFrameUs is each op's latency per frame, in microseconds.
func (p *phase) perFrameUs() []float64 {
	out := make([]float64, len(p.latNs))
	for i, ns := range p.latNs {
		out[i] = ns / 1e3 / float64(p.frames[i])
	}
	return out
}

// endToEndValues turns a timed phase into the end-to-end metrics other
// than setup_s and peak_rss_mb.
func (p *phase) endToEndValues(w workload) values {
	n := len(p.latNs)
	correct, within := 0, 0
	audioOK := 0.0
	for i := 0; i < n; i++ {
		if !p.ok[i] {
			continue
		}
		correct++
		audioOK += float64(p.frames[i]) * frameSeconds
		if p.latNs[i] <= w.limitNs(p.frames[i]) {
			within++
		}
	}
	v := values{
		"frame_us_p05":     p05(p.perFrameUs()),
		"cpu_us_per_frame": p.cpuS * 1e6 / float64(p.totalFrames()),
		"slo_attainment":   float64(within) / float64(n),
		"success_rate":     float64(correct) / float64(n),
	}
	if w.kind == opServe {
		v["rtf"] = audioOK / p.wallS
	} else {
		v["rtf"] = median(p.segmentRTF(false))
	}
	return v
}

func (p *phase) failed() int {
	n := 0
	for _, ok := range p.ok {
		if !ok {
			n++
		}
	}
	return n
}
