// Package serve is the HTTP serving tier: it wires the engine registry's
// scoring, streaming, admin, and observability endpoints onto a mux, and
// owns the request-scoped observability surface — W3C traceparent
// propagation, per-request span trees fed through the batching scheduler,
// tail-sampled trace retention (/debug/traces), and the SLO burn-rate
// engine (/slo, rtmobile_slo_* metric families).
//
// Split out of cmd/rtmobile so the in-process load generator
// (internal/bench) and the CLI share one serving implementation; handler
// tests drive it through httptest without binding a socket.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"rtmobile/internal/obs"
	"rtmobile/internal/registry"
	"rtmobile/internal/sched"
	"rtmobile/internal/tensor"
)

// TraceparentHeader is the W3C Trace Context request/response header.
const TraceparentHeader = "traceparent"

// Defaults for the observability surface when Config leaves them unset.
const (
	DefaultSLOLatency = 100 * time.Millisecond
	DefaultSLOTarget  = 0.99
	DefaultTailSlow   = 32 // slowest-N retained traces
	DefaultTailErrs   = 32 // errored-trace ring capacity
)

// Bounds on what the body-reading routes accept, sized from the largest
// legitimate request rather than configured: a body that runs past its
// bound is answered 413 and the connection is closed.
const (
	// maxInferBody: five minutes of audio in one /infer — 30,000 frames at
	// the 10 ms hop × 39 features × ~13 JSON bytes ≈ 15 MiB.
	maxInferBody = 16 << 20
	// maxStreamBody: a dictation session of over an hour at the same rate
	// (≈ 180 MiB/h), summed over the whole NDJSON stream.
	maxStreamBody = 256 << 20
	// maxSwapBody: {"path": "..."} with a PATH_MAX path, JSON-escaped.
	maxSwapBody = 16 << 10
	// streamFrameTimeout is how long a stream session may go without a
	// frame. http.Server.ReadTimeout spans a whole request, which would cut
	// every long session, so the stream route moves its read deadline out
	// by this much before each frame instead.
	streamFrameTimeout = 60 * time.Second
)

// refuseBody answers a request whose body would not decode: 413 when it ran
// past its bound, 400 otherwise.
func refuseBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
}

// Config wires a Server.
type Config struct {
	// Registry is the multi-model engine registry (required).
	Registry *registry.Registry
	// SLO is the latency/availability objective tracker; nil builds one at
	// DefaultSLOLatency/DefaultSLOTarget.
	SLO *obs.SLO
	// Tail is the tail-sampling trace retainer; nil builds one at
	// DefaultTailSlow/DefaultTailErrs.
	Tail *obs.TraceTail
}

// Server owns the serving mux and the request-scoped observability state.
type Server struct {
	reg  *registry.Registry
	slo  *obs.SLO
	tail *obs.TraceTail
	pool obs.TracePool
	bufs sync.Pool // *inferBuf
	mux  *http.ServeMux
}

// New builds a Server, filling Config defaults.
func New(cfg Config) *Server {
	s := &Server{reg: cfg.Registry, slo: cfg.SLO, tail: cfg.Tail}
	s.bufs.New = func() any { return new(inferBuf) }
	if s.slo == nil {
		s.slo, _ = obs.NewSLO(obs.SLOConfig{
			LatencyNs: DefaultSLOLatency.Nanoseconds(),
			Target:    DefaultSLOTarget,
		})
	}
	if s.tail == nil {
		s.tail = obs.NewTraceTail(DefaultTailSlow, DefaultTailErrs)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Mux returns the serving mux.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// SLO returns the server's objective tracker (never nil).
func (s *Server) SLO() *obs.SLO { return s.slo }

// Tail returns the server's trace retainer (never nil).
func (s *Server) Tail() *obs.TraceTail { return s.tail }

// retryAfter is the Retry-After hint on 429s, in the header's whole
// seconds: the floor, because the queue drains in milliseconds.
const retryAfter = "1"

// acquireModel resolves the request's model name ("" means the default
// model) to a lease, writing the HTTP error itself when it cannot.
func (s *Server) acquireModel(w http.ResponseWriter, name string) *registry.Lease {
	if name == "" {
		name = s.reg.DefaultModel()
	}
	l, err := s.reg.Acquire(name)
	switch {
	case errors.Is(err, registry.ErrUnknownModel):
		http.Error(w, err.Error(), http.StatusNotFound)
		return nil
	case err != nil:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return nil
	}
	return l
}

// beginTrace starts a request trace: join the caller's W3C trace context
// when a valid traceparent header is present (our span becomes a child of
// the caller's), mint a fresh trace otherwise, and announce our span in
// the response's traceparent header — set now, sent with the first write.
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request, start time.Time) *obs.ReqTrace {
	tr := s.pool.Get()
	if tid, parent, flags, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		tr.ID, tr.Parent, tr.Flags = tid, parent, flags
	} else {
		tr.ID = obs.GenTraceID()
		tr.Flags = 0x01 // sampled: we are the root and we do record
	}
	tr.Span = obs.GenSpanID()
	tr.Start = start.UnixNano()
	w.Header().Set(TraceparentHeader, obs.Traceparent(tr.ID, tr.Span, tr.Flags))
	return tr
}

// finishTrace completes a request trace: stamp the end, feed the SLO
// engine, offer the trace to the tail sampler, recycle the context.
func (s *Server) finishTrace(tr *obs.ReqTrace, ok bool) {
	tr.End = time.Now().UnixNano()
	tr.Err = !ok
	s.slo.Observe(tr.DurNs(), ok)
	s.tail.Offer(tr)
	s.pool.Put(tr)
}

// routes registers the endpoint set:
//
//	GET  /metrics              Prometheus text format 0.0.4 (process-wide,
//	                           {model="..."} families, rtmobile_slo_*)
//	GET  /metrics.json         the same instrument set as flat JSON
//	GET  /healthz              liveness + deployment identity
//	GET  /statz                per-model latency tables + scheduler state
//	GET  /slo                  SLO report: objective, cumulative attainment,
//	                           multi-window burn rates
//	GET  /debug/traces         tail-sampled request traces (slowest-N +
//	                           errored) as JSON; ?format=chrome emits Chrome
//	                           trace-event format loadable in Perfetto
//	POST /infer                score one utterance on the default model:
//	                           JSON [][]float32 frames in, [][]float32
//	                           posteriors out; batched across concurrent
//	                           requests, 429 + Retry-After on overload,
//	                           413 past maxInferBody.
//	                           Parses traceparent on ingress, echoes a child
//	                           traceparent on egress.
//	POST /infer/{model}        the same against a named model (404 unknown)
//	POST /infer/stream         frame-at-a-time scoring over one request:
//	                           NDJSON []float32 frames in, []float32
//	                           posteriors out, flushed per frame on a
//	                           dedicated stream lane (default model)
//	POST /infer/{model}/stream the same against a named model
//	GET  /admin/models         registry snapshot as JSON
//	POST /admin/models/{name}/swap
//	                           hot-swap the named model to the bundle in the
//	                           JSON body {"path": "..."} (empty body or path
//	                           reloads the current bundle path)
//	GET  /debug/pprof/         CPU/heap/goroutine profiles (net/http/pprof)
//
// A model literally named "stream" is shadowed on the /infer/{model} route
// by the default model's /infer/stream endpoint; use a different name.
func (s *Server) routes() {
	mux := s.mux
	reg := s.reg

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		m := obs.M()
		if m == nil {
			http.Error(w, "metrics collection disabled (RTMOBILE_METRICS)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
		s.slo.WritePrometheus(w)
	})

	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		m := obs.M()
		if m == nil {
			http.Error(w, "metrics collection disabled (RTMOBILE_METRICS)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		m.WriteJSON(w)
	})

	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.slo.WriteJSON(w)
	})

	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="rtmobile-traces.json"`)
			s.tail.WriteChrome(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.tail.WriteJSON(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		lease, err := reg.Acquire(reg.DefaultModel())
		if err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": "unavailable", "error": err.Error()})
			return
		}
		defer lease.Release()
		eng := lease.Engine()
		json.NewEncoder(w).Encode(map[string]any{
			"status":          "ok",
			"model":           eng.Plan().ModelName,
			"format":          eng.Plan().Options.Format.String(),
			"models":          reg.Names(),
			"metrics_enabled": obs.Enabled(),
			"tracing_enabled": eng.Tracer() != nil,
			"kernels":         tensor.KernelSet(),
		})
	})

	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, name := range reg.Names() {
			st, _ := reg.Stats(name)
			fmt.Fprintf(w, "model %s: version=%d path=%s leases=%d requests=%d errors=%d swaps=%d retired=%d\n",
				name, st.Version, st.Path, st.Leases, st.Requests, st.Errors, st.Swaps, st.Retired)
			lease, err := reg.Acquire(name)
			if err != nil {
				fmt.Fprintf(w, "  unavailable: %v\n", err)
				continue
			}
			fmt.Fprint(w, RenderLayerStats(lease.Engine()))
			sch := lease.Scheduler()
			cfg := sch.Config()
			fmt.Fprintf(w, "sched: max_batch=%d queue=%d/%d max_streams=%d\n",
				cfg.MaxBatch, sch.QueueLen(), cfg.QueueDepth, cfg.MaxStreams)
			lease.Release()
		}
		if m := obs.M(); m != nil { // process-wide, like /metrics
			fmt.Fprintf(w, "sched panels: opened=%d grows=%d shrinks=%d lanes_moved=%d\n",
				m.SchedDispatch.Value(), m.SchedGrows.Value(), m.SchedShrinks.Value(), m.SchedLanesMoved.Value())
		}
		offered, kept := s.tail.Stats()
		fmt.Fprintf(w, "traces: offered=%d kept=%d\n", offered, kept)
	})

	score := func(w http.ResponseWriter, r *http.Request) {
		lease := s.acquireModel(w, r.PathValue("model"))
		if lease == nil {
			return
		}
		defer lease.Release()
		start := time.Now()
		tr := s.beginTrace(w, r, start)
		tr.Model = lease.Engine().Plan().ModelName

		buf := s.bufs.Get().(*inferBuf)
		defer s.recycle(buf)
		body, err := buf.readBody(http.MaxBytesReader(w, r.Body, maxInferBody), r.ContentLength)
		var frames [][]float32
		if err == nil {
			frames, err = buf.decodeFrames(body)
		}
		if err != nil {
			s.pool.Put(tr) // client error: no SLO sample, no retention
			refuseBody(w, err)
			return
		}
		tr.AddSpan(obs.ReqSpanParse, -1, 0, start.UnixNano(), time.Since(start).Nanoseconds())
		if len(frames) == 0 {
			s.pool.Put(tr)
			http.Error(w, "bad request: empty frame sequence", http.StatusBadRequest)
			return
		}
		eng := lease.Engine()
		want := eng.InputDim()
		for t, f := range frames {
			if len(f) != want {
				s.pool.Put(tr)
				http.Error(w, fmt.Sprintf("bad request: frame %d has %d features, model wants %d",
					t, len(f), want), http.StatusBadRequest)
				return
			}
		}
		sch := lease.Scheduler()
		post := buf.posteriors(len(frames), eng.OutputDim())
		err = sch.InferTracedInto(r.Context(), tr, post, frames)
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "server overloaded: inference queue full", http.StatusTooManyRequests)
			s.finishTrace(tr, false)
			return
		case errors.Is(err, sched.ErrClosed):
			lease.Error()
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			s.finishTrace(tr, false)
			return
		case err != nil:
			// Request context cancelled: the client is gone, and the scheduler
			// has already let go of the trace and the posterior rows.
			s.pool.Put(tr)
			return
		}
		lease.ObserveLatency(time.Since(start).Nanoseconds())
		ser := time.Now()
		buf.out, err = appendPosteriors(buf.out[:0], post)
		if err != nil { // NaN or Inf in the weights; JSON cannot carry it
			lease.Error()
			http.Error(w, "internal error: "+err.Error(), http.StatusInternalServerError)
			s.finishTrace(tr, false)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(buf.out)))
		w.Write(buf.out)
		tr.AddSpan(obs.ReqSpanSerialize, -1, 0, ser.UnixNano(), time.Since(ser).Nanoseconds())
		s.finishTrace(tr, true)
	}
	mux.HandleFunc("POST /infer", score)
	mux.HandleFunc("POST /infer/{model}", score)

	stream := func(w http.ResponseWriter, r *http.Request) {
		lease := s.acquireModel(w, r.PathValue("model"))
		if lease == nil {
			return
		}
		defer lease.Release()
		// Streaming sessions hold recurrent state across frames, which
		// lockstep panels cannot pause, so each gets a stream of its own
		// — admitted against the scheduler's stream-lane budget.
		sch := lease.Scheduler()
		release, err := sch.AcquireStreamLane()
		if errors.Is(err, sched.ErrClosed) {
			lease.Error()
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "server overloaded: all stream lanes busy", http.StatusTooManyRequests)
			return
		}
		defer release()

		eng := lease.Engine()
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		st := eng.NewStream()
		dst := make([]float32, eng.OutputDim())
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxStreamBody))
		enc := json.NewEncoder(w)
		want := eng.InputDim()
		rc := http.NewResponseController(w)
		for frame := 0; ; frame++ {
			// Not every ResponseWriter can move its deadline (a test recorder
			// cannot); the server's ReadTimeout stands then.
			_ = rc.SetReadDeadline(time.Now().Add(streamFrameTimeout))
			var f []float32
			if err := dec.Decode(&f); err != nil {
				// EOF, or malformed or over the bound mid-stream, when the
				// response is committed; a first frame can still be refused.
				if frame == 0 && !errors.Is(err, io.EOF) {
					refuseBody(w, err)
				}
				return
			}
			if len(f) != want {
				// Mid-stream the response is committed and the stream just
				// ends; a first frame is refused like /infer refuses it.
				if frame == 0 {
					http.Error(w, fmt.Sprintf("bad request: frame 0 has %d features, model wants %d",
						len(f), want), http.StatusBadRequest)
				}
				return
			}
			st.StepInto(dst, f)
			if enc.Encode(dst) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	mux.HandleFunc("POST /infer/stream", stream)
	mux.HandleFunc("POST /infer/{model}/stream", stream)

	mux.HandleFunc("GET /admin/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reg.AllStats())
	})

	mux.HandleFunc("POST /admin/models/{name}/swap", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSwapBody)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			refuseBody(w, err)
			return
		}
		path := req.Path
		if path == "" {
			st, ok := reg.Stats(name)
			if !ok {
				http.Error(w, registry.ErrUnknownModel.Error()+": "+name, http.StatusNotFound)
				return
			}
			path = st.Path
		}
		err := reg.Swap(name, path)
		switch {
		case errors.Is(err, registry.ErrUnknownModel):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case errors.Is(err, registry.ErrClosed):
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		case err != nil: // the replacement bundle failed to load; old serves on
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, _ := reg.Stats(name)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})

	// net/http/pprof registers on DefaultServeMux at import; re-register
	// explicitly so the serving mux carries the profiles without inheriting
	// whatever else landed on the default mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
