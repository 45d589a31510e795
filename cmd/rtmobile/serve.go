package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
	"rtmobile/internal/serve"
)

// rtmobile serve: expose one or more deployment bundles over HTTP with the
// full observability surface — Prometheus metrics, JSON metrics, a health
// probe, the per-layer latency table, request-scoped traces with W3C
// traceparent propagation (/debug/traces), SLO burn-rate reporting (/slo),
// Go's pprof profiles — through a multi-model engine registry. Each model
// gets its own work-conserving continuous-batching scheduler: a lone
// request is stepped the moment it arrives, concurrent ones share a
// lockstep panel, and bundles can be hot-swapped atomically while traffic
// flows. The handlers themselves live in
// internal/serve, shared with the in-process load generator.

// newServeMux wires the serving endpoints onto a fresh mux with default
// observability settings — the shape handler tests drive through httptest.
func newServeMux(reg *registry.Registry) *http.ServeMux {
	return serve.New(serve.Config{Registry: reg}).Mux()
}

// renderLayerStats formats the per-layer latency table (run -stats).
func renderLayerStats(eng *rtmobile.Engine) string {
	return serve.RenderLayerStats(eng)
}

// modelArg is one -model name=path registration.
type modelArg struct{ name, path string }

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	bundle := fs.String("bundle", "model.rtmb", "deployment bundle path (registered as model \"default\" when no -model flag is given)")
	var models []modelArg
	fs.Func("model", "register a model as name=path (repeatable; the first becomes the default model)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-model wants name=path, got %q", v)
		}
		models = append(models, modelArg{name: name, path: path})
		return nil
	})
	addr := fs.String("addr", "localhost:8090", "listen address")
	trace := fs.Bool("trace", false, "total per-layer, epilogue and kernel time for the /statz table")
	maxBatch := fs.Int("max-batch", 8, fmt.Sprintf("wide panel shape, 1..%d: a lone request is stepped alone at width 1, and the panel grows to this width the moment a second one waits (1 = never batch)", rtmobile.MaxBatchWidth))
	queueDepth := fs.Int("queue-depth", 64, "bound on waiting requests before 429s")
	sloLatencyMs := fs.Float64("slo-latency-ms", 100, "per-request latency objective in milliseconds (a request is good when it succeeds within it)")
	sloTarget := fs.Float64("slo-target", 0.99, "SLO attainment target in (0,1], e.g. 0.999")
	traceTail := fs.Int("trace-tail", serve.DefaultTailSlow, "slowest-N request traces retained for /debug/traces (errored ring sized to match)")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	if *maxBatch < 1 || *maxBatch > rtmobile.MaxBatchWidth {
		return fmt.Errorf("-max-batch %d out of range 1..%d", *maxBatch, rtmobile.MaxBatchWidth)
	}
	if *queueDepth < 1 {
		return fmt.Errorf("-queue-depth %d: need at least 1", *queueDepth)
	}
	if *sloLatencyMs <= 0 {
		return fmt.Errorf("-slo-latency-ms %v: the latency objective must be positive milliseconds", *sloLatencyMs)
	}
	if *sloTarget <= 0 || *sloTarget > 1 {
		return fmt.Errorf("-slo-target %v: the attainment target must be in (0,1]", *sloTarget)
	}
	if *traceTail < 1 {
		return fmt.Errorf("-trace-tail %d: need at least 1 retained trace", *traceTail)
	}
	if len(models) == 0 {
		models = []modelArg{{name: "default", path: *bundle}}
	}

	// Every load — initial registration and every later hot swap — goes
	// through one loader: zero-copy map the bundle and serve its programs
	// as written, priced under the target each file was lowered for, with
	// the same pool size and tracing as the original.
	loader := func(path string) (registry.Instance, error) {
		mb, err := rtmobile.MapBundle(path, nil)
		if err != nil {
			return registry.Instance{}, err
		}
		eng := mb.Engine()
		eng.SetWorkers(*workers)
		if *trace {
			eng.EnableTracing()
		}
		return registry.Instance{Engine: eng, Close: mb.Close}, nil
	}
	reg, err := registry.New(registry.Config{
		Loader: loader,
		Sched: sched.Config{
			MaxBatch:   *maxBatch,
			QueueDepth: *queueDepth,
		},
	})
	if err != nil {
		return err
	}
	for _, m := range models {
		if err := reg.Register(m.name, m.path); err != nil {
			reg.Close(context.Background())
			return err
		}
		lease, err := reg.Acquire(m.name)
		if err != nil {
			reg.Close(context.Background())
			return err
		}
		fmt.Printf("model %s: %s (%s, %s)\n", m.name, m.path, lease.Engine().Target().Name, lease.Engine().Plan())
		lease.Release()
	}
	slo, err := obs.NewSLO(obs.SLOConfig{
		LatencyNs: int64(*sloLatencyMs * 1e6),
		Target:    *sloTarget,
	})
	if err != nil {
		reg.Close(context.Background())
		return err
	}
	// Fresh ids across restarts; the loadgen reseeds deterministically.
	obs.SeedTraceIDs(uint64(time.Now().UnixNano()))
	srv := serve.New(serve.Config{
		Registry: reg,
		SLO:      slo,
		Tail:     obs.NewTraceTail(*traceTail, *traceTail),
	})
	fmt.Printf("serving %d model(s) on http://%s (default %s)\n", len(models), *addr, reg.DefaultModel())
	fmt.Printf("batching: dispatch on arrival, panel width 1 or %d, queue-depth=%d (per model)\n", *maxBatch, *queueDepth)
	fmt.Printf("slo: latency=%.1fms target=%.4f (burn rates on /slo)\n", *sloLatencyMs, *sloTarget)
	fmt.Printf("endpoints: /metrics /metrics.json /healthz /statz /slo /debug/traces /infer /infer/{model} /infer/stream /admin/models /debug/pprof/\n")
	if !obs.Enabled() {
		fmt.Printf("note: metrics collection is disabled (%s); /metrics will return 503\n", obs.EnvMetrics)
	}

	// No WriteTimeout: an NDJSON stream session writes for as long as it
	// lasts (its reads are bounded per frame, see internal/serve).
	server := &http.Server{
		Addr: *addr, Handler: srv.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second, // a full 16 MiB /infer body at ≥ 0.5 MB/s
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		reg.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, finish in-flight handlers, then let
	// each model's scheduler finish whatever is still queued before the
	// registry releases the bundle mappings.
	stop()
	fmt.Println("shutting down: finishing in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = server.Shutdown(shutdownCtx)
	if cerr := reg.Close(shutdownCtx); err == nil {
		err = cerr
	}
	return err
}
