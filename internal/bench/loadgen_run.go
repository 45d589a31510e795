package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
	"rtmobile/internal/serve"
	"rtmobile/internal/speech"
)

// LoadgenConfig sizes the SLO load study.
type LoadgenConfig struct {
	// Seed drives the corpus draw and every arrival plan.
	Seed uint64
	// Spec/Prune shape the served engine; Spec.InputDim need not match the
	// corpus feature width (frames are fitted deterministically).
	Spec  nn.ModelSpec
	Prune rtmobile.PruneConfig
	// Corpus generates the replayed utterances.
	Corpus speech.CorpusConfig
	// MaxFrames truncates each utterance so a single request stays bounded
	// (0 = full utterances).
	MaxFrames int
	// LevelDuration is the open-loop run length per offered-load level.
	LevelDuration time.Duration
	// Multipliers scale the probed capacity into the QPS sweep; at least
	// one must exceed 1 so the sweep crosses the saturation knee.
	Multipliers []float64
	// SLOLatencyMs / SLOTarget define good requests.
	SLOLatencyMs float64
	SLOTarget    float64
	// Sched configures each model's continuous-batching scheduler.
	Sched sched.Config
	Logf  func(string, ...any)
}

// DefaultLoadgenConfig sweeps a mid-size GRU from half capacity to well
// past the knee.
func DefaultLoadgenConfig() LoadgenConfig {
	return LoadgenConfig{
		Seed: 9,
		Spec: nn.ModelSpec{
			InputDim: speech.DefaultFeatureConfig().Dim(), Hidden: 192, NumLayers: 1, OutputDim: 41, Seed: 9,
		},
		Prune:         rtmobile.PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4},
		Corpus:        speech.DefaultCorpusConfig(),
		MaxFrames:     20,
		LevelDuration: 1200 * time.Millisecond,
		Multipliers:   []float64{0.4, 0.8, 1.5, 2.5},
		SLOLatencyMs:  100,
		SLOTarget:     0.99,
		Sched:         sched.Config{MaxBatch: 8, QueueDepth: 32},
	}
}

// loadgenCapacityCap bounds the capacity estimate so a mismeasured probe
// cannot explode the plan into tens of thousands of goroutines.
const loadgenCapacityCap = 3000

// NewLoadgenClient builds an HTTP client wide enough for open-loop bursts
// (the default transport idles out at 2 conns/host and would churn).
func NewLoadgenClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
		Timeout:   10 * time.Second,
	}
}

// FetchServerAttainment pulls the cumulative attainment from a server's
// /slo endpoint — the cross-check the loadgen subcommand prints.
func FetchServerAttainment(baseURL string) (float64, error) {
	rep, err := fetchSLOReport(NewLoadgenClient(), baseURL)
	if err != nil {
		return 0, err
	}
	return rep.Attainment, nil
}

// probeCapacity estimates the server's completion rate with a short
// closed-loop burst: workers hammering /infer back-to-back.
func probeCapacity(client *http.Client, baseURL string, bodies [][]byte, workers int, d time.Duration) float64 {
	var n atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i += workers {
				req, err := http.NewRequest(http.MethodPost, baseURL+"/infer",
					bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					n.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(n.Load()) / d.Seconds()
}

// fetchSLOReport pulls the server's own /slo view for the cross-check.
func fetchSLOReport(client *http.Client, baseURL string) (obs.SLOReport, error) {
	var rep obs.SLOReport
	resp, err := client.Get(baseURL + "/slo")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("/slo status %d", resp.StatusCode)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// RunLoadgenBench builds an in-process serve stack (engine → registry →
// HTTP handlers) and drives the full study: capacity probe, open-loop QPS
// sweep across the saturation knee with per-level /slo cross-checks, and
// the tracing+SLO hot-path overhead measurement.
func RunLoadgenBench(cfg LoadgenConfig) (*LoadgenReport, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	corpus, err := speech.GenerateCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	utts := append(append([]speech.Utterance{}, corpus.Train...), corpus.Test...)
	if len(utts) == 0 {
		return nil, fmt.Errorf("loadgen: corpus generated no utterances")
	}
	bodies, err := LoadgenBodies(utts, cfg.Spec.InputDim, cfg.MaxFrames)
	if err != nil {
		return nil, err
	}

	model := nn.NewGRUModel(cfg.Spec)
	res := rtmobile.Prune(model, nil, cfg.Prune)
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		return nil, err
	}
	reg, err := registry.New(registry.Config{
		Loader: func(path string) (registry.Instance, error) {
			return registry.Instance{Engine: eng}, nil
		},
		Sched: cfg.Sched,
	})
	if err != nil {
		return nil, err
	}
	defer reg.Close(context.Background())
	if err := reg.Register("default", "mem://loadgen"); err != nil {
		return nil, err
	}

	rep := &LoadgenReport{Seed: cfg.Seed, SLOLatencyMs: cfg.SLOLatencyMs, SLOTarget: cfg.SLOTarget}
	sloNs := int64(cfg.SLOLatencyMs * 1e6)
	client := NewLoadgenClient()

	// Closed-loop capacity estimate (its own server so the probe's traffic
	// never pollutes a level's /slo accounting).
	probe := httptest.NewServer(serve.New(serve.Config{Registry: reg}).Mux())
	rep.CapacityRPS = probeCapacity(client, probe.URL, bodies, 8, 400*time.Millisecond)
	probe.Close()
	if rep.CapacityRPS > loadgenCapacityCap {
		logf("capacity estimate %.0f rps capped to %d", rep.CapacityRPS, loadgenCapacityCap)
		rep.CapacityRPS = loadgenCapacityCap
	}
	if rep.CapacityRPS < 1 {
		return nil, fmt.Errorf("loadgen: capacity probe measured %.2f rps — server not completing requests", rep.CapacityRPS)
	}
	logf("capacity estimate: %.0f rps (closed loop, 8 workers)", rep.CapacityRPS)

	for i, mult := range cfg.Multipliers {
		qps := rep.CapacityRPS * mult
		if qps < 1 {
			qps = 1
		}
		// Fresh SLO+tail per level so each /slo cross-check sees exactly
		// its own level's traffic; the registry (and its warm schedulers)
		// carries over.
		slo, err := obs.NewSLO(obs.SLOConfig{LatencyNs: sloNs, Target: cfg.SLOTarget})
		if err != nil {
			return nil, err
		}
		srv := serve.New(serve.Config{Registry: reg, SLO: slo, Tail: obs.NewTraceTail(32, 32)})
		ts := httptest.NewServer(srv.Mux())

		// Per-level plan seed is a pure function of the study seed and the
		// level index, so the whole sweep replays from one seed.
		seed := cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		plan := LoadgenSchedule(seed, len(utts), qps, cfg.LevelDuration)
		logf("level %d: offering %.0f qps (%.1fx capacity, %d arrivals)", i, qps, mult, len(plan))
		row := RunLoadLevel(client, ts.URL, plan, bodies, sloNs, cfg.LevelDuration)
		row.TargetQPS = qps

		srvRep, err := fetchSLOReport(client, ts.URL)
		ts.Close()
		if err != nil {
			return nil, fmt.Errorf("loadgen: /slo cross-check: %w", err)
		}
		row.ServerAttainment = srvRep.Attainment
		if got, want := int(srvRep.TotalRequests), row.Completed+row.Rejected; got != want && row.Failed == 0 {
			return nil, fmt.Errorf("loadgen: /slo saw %d requests, client completed+rejected %d", got, want)
		}
		rep.Levels = append(rep.Levels, row)
		if row.Saturated && (rep.KneeRPS == 0 || row.OfferedRPS < rep.KneeRPS) {
			rep.KneeRPS = row.OfferedRPS
		}
	}

	// Hot-path price of request tracing + SLO accounting over the
	// metrics-only scheduler path (BENCH_4 methodology).
	frames := FitFrames(utts[0].Frames, cfg.Spec.InputDim)
	if cfg.MaxFrames > 0 && len(frames) > cfg.MaxFrames {
		frames = frames[:cfg.MaxFrames]
	}
	over, allocs, err := loadgenOverhead(eng, frames, sloNs, cfg.SLOTarget)
	if err != nil {
		return nil, err
	}
	rep.TracingOverheadPct, rep.TracedAllocsPerOp = over, allocs
	logf("tracing+slo overhead: %+.2f%% (traced allocs/op %.0f)", over, allocs)
	return rep, nil
}

// loadgenOverhead times the scheduler's metrics-only path against the
// fully traced path — request trace from the pool, span recording, SLO
// observation, tail-sampling offer — with metrics enabled in both modes,
// and gates the traced warm path at zero allocations.
func loadgenOverhead(eng *rtmobile.Engine, frames [][]float32, sloNs int64, target float64) (pct, allocs float64, err error) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	// MaxBatch 1 keeps the measurement single-stream and deterministic
	// (same shape the sched alloc gate uses).
	sch := sched.New(registry.Batcher(eng), sched.Config{MaxBatch: 1, QueueDepth: 8})
	ctx := context.Background()
	defer sch.Close(ctx)

	slo, err := obs.NewSLO(obs.SLOConfig{LatencyNs: sloNs, Target: target})
	if err != nil {
		return 0, 0, err
	}
	tail := obs.NewTraceTail(8, 8)
	var pool obs.TracePool

	dst := make([][]float32, len(frames))
	flat := make([]float32, len(frames)*eng.OutputDim())
	for t := range dst {
		dst[t] = flat[t*eng.OutputDim() : (t+1)*eng.OutputDim()]
	}
	traced := func() error {
		tr := pool.Get()
		tr.ID, tr.Span, tr.Flags = obs.GenTraceID(), obs.GenSpanID(), 0x01
		tr.Start = time.Now().UnixNano()
		if err := sch.InferTracedInto(ctx, tr, dst, frames); err != nil {
			pool.Put(tr)
			return err
		}
		tr.End = time.Now().UnixNano()
		slo.Observe(tr.End-tr.Start, true)
		tail.Offer(tr)
		pool.Put(tr)
		return nil
	}
	// Warm free lists, batch arenas, and the tail's slow slice to capacity
	// so the gated path only recycles.
	for i := 0; i < 10; i++ {
		if err := sch.InferInto(ctx, dst, frames); err != nil {
			return 0, 0, err
		}
		if err := traced(); err != nil {
			return 0, 0, err
		}
	}

	// Min-of-reps, interleaved, so a thermal or GC wobble in one rep
	// cannot masquerade as tracing cost (the ops are milliseconds each, so
	// a single testing.Benchmark pass sees few iterations).
	baseNs, tracedNs := int64(0), int64(0)
	for rep := 0; rep < benchRowReps; rep++ {
		b := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sch.InferInto(ctx, dst, frames)
			}
		})
		if rep == 0 || b.NsPerOp() < baseNs {
			baseNs = b.NsPerOp()
		}
		tb := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				traced()
			}
		})
		if rep == 0 || tb.NsPerOp() < tracedNs {
			tracedNs = tb.NsPerOp()
		}
	}
	if baseNs > 0 {
		pct = (float64(tracedNs)/float64(baseNs) - 1) * 100
	}
	allocs = testing.AllocsPerRun(50, func() { traced() })
	return pct, allocs, nil
}
