package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

// Scheduler-backed serving tests: concurrent clients through a real
// httptest.Server must observe responses bit-identical to single-stream
// Engine.Infer, overload must surface as 429 + Retry-After, and shutdown
// must drain admitted work. Run under -race via the Makefile race target.

// postInfer scores one utterance against a live server.
func postInfer(t *testing.T, client *http.Client, url string, frames [][]float32) (int, [][]float32, http.Header) {
	t.Helper()
	body, _ := json.Marshal(frames)
	resp, err := client.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /infer: %v", err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, resp.Header
	}
	var post [][]float32
	if err := json.NewDecoder(resp.Body).Decode(&post); err != nil {
		t.Errorf("POST /infer: decode: %v", err)
		return resp.StatusCode, nil, resp.Header
	}
	return resp.StatusCode, post, resp.Header
}

// samePost compares posterior matrices exactly: batched lanes never mix,
// so the scheduler owes clients the serial engine's bytes.
func samePost(got, want [][]float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("frame count %d, want %d", len(got), len(want))
	}
	for f := range want {
		for j := range want[f] {
			if got[f][j] != want[f][j] {
				return fmt.Errorf("frame %d dim %d: %v != %v", f, j, got[f][j], want[f][j])
			}
		}
	}
	return nil
}

// TestServeConcurrentBitIdentical: N concurrent clients hammer /infer on
// one engine; every response must be bit-identical to the single-stream
// Engine.Infer answer for the same utterance, at every concurrency level.
func TestServeConcurrentBitIdentical(t *testing.T) {
	eng := serveEngine(t)
	const kinds = 6 // distinct utterances; clients cycle through them
	inputs := make([][][]float32, kinds)
	wants := make([][][]float32, kinds)
	for k := 0; k < kinds; k++ {
		inputs[k] = serveFrames(3+k, eng.InputDim())
		for tt := range inputs[k] {
			inputs[k][tt][0] += float32(k) // distinct per kind
		}
		wants[k] = eng.Infer(inputs[k]) // serial ground truth, before traffic
	}

	for _, clients := range []int{2, 8, 32} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			reg := newEngineRegistry(t, eng, sched.Config{
				MaxBatch: 8, QueueDepth: 4 * clients,
			})
			srv := httptest.NewServer(newServeMux(reg))
			defer srv.Close()

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for req := 0; req < 3; req++ {
						k := (c + req) % kinds
						code, post, _ := postInfer(t, srv.Client(), srv.URL, inputs[k])
						if code != http.StatusOK {
							t.Errorf("client %d req %d: status %d", c, req, code)
							return
						}
						if err := samePost(post, wants[k]); err != nil {
							t.Errorf("client %d req %d diverges from serial Infer: %v", c, req, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// countingClock is the wall clock, counting its readers: the scheduler
// reads it once per admission and once per unit of dispatcher work, which
// lets holdLane see that work has started.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// heldRegistry is a one-lane (MaxBatch 1) registry over eng whose lane is
// occupied by one very long utterance submitted straight to the scheduler
// — every frame and every posterior row aliases one slice, so its length
// costs only slice headers. Requests arriving meanwhile queue behind it.
// release cancels the blocker, which frees the lane at the next panel
// step, and waits for it to return.
func heldRegistry(t *testing.T, eng *rtmobile.Engine, queueDepth int) (reg *registry.Registry, sch *sched.Scheduler, release func()) {
	t.Helper()
	clk := &countingClock{}
	reg = newEngineRegistry(t, eng, sched.Config{MaxBatch: 1, QueueDepth: queueDepth, Clock: clk})
	sch = regScheduler(t, reg)

	const T = 1 << 19 // over a second of panel steps even for this tiny model
	frame, row := make([]float32, eng.InputDim()), make([]float32, eng.OutputDim())
	frames, dst := make([][]float32, T), make([][]float32, T)
	for i := range frames {
		frames[i], dst[i] = frame, row
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sch.InferInto(ctx, dst, frames) }()
	// One read admits the blocker, the next belongs to the step that seats it.
	waitFor(t, "blocker seated", func() bool { return clk.reads.Load() >= 2 })
	return reg, sch, func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("blocker: err = %v, want context.Canceled (it must not have run to its end)", err)
		}
	}
}

// TestServeOverload429: with the lane held and the queue full, /infer
// answers 429 with a Retry-After hint; once the lane frees the parked
// requests complete normally.
func TestServeOverload429(t *testing.T) {
	eng := serveEngine(t)
	reg, sch, release := heldRegistry(t, eng, 2)
	srv := httptest.NewServer(newServeMux(reg))
	defer srv.Close()

	frames := serveFrames(3, eng.InputDim())
	want := eng.Infer(frames)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, post, _ := postInfer(t, srv.Client(), srv.URL, frames)
			if code != http.StatusOK {
				t.Errorf("parked request: status %d", code)
				return
			}
			if err := samePost(post, want); err != nil {
				t.Errorf("parked request diverges: %v", err)
			}
		}()
	}
	waitFor(t, "queue full", func() bool { return sch.QueueLen() == 2 })

	code, _, hdr := postInfer(t, srv.Client(), srv.URL, frames)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	release()
	wg.Wait()
}

// TestServeShutdownDrains: requests parked in the scheduler when shutdown
// starts still get full, correct responses; requests arriving after get
// 503.
func TestServeShutdownDrains(t *testing.T) {
	eng := serveEngine(t)
	reg, sch, release := heldRegistry(t, eng, 8)
	srv := httptest.NewServer(newServeMux(reg))
	defer srv.Close()

	frames := serveFrames(4, eng.InputDim())
	want := eng.Infer(frames)

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, post, _ := postInfer(t, srv.Client(), srv.URL, frames)
			if code != http.StatusOK {
				t.Errorf("in-flight request dropped at shutdown: status %d", code)
				return
			}
			if err := samePost(post, want); err != nil {
				t.Errorf("drained response diverges: %v", err)
			}
		}()
	}
	waitFor(t, "requests parked", func() bool { return sch.QueueLen() == n })
	// Close with three requests still queued behind the held lane: the
	// registry stops admitting at once and waits for their leases.
	closed := make(chan error, 1)
	go func() { closed <- reg.Close(context.Background()) }()
	waitFor(t, "registry closed to new requests", func() bool {
		l, err := reg.Acquire("default")
		if err == nil {
			l.Release()
		}
		return err != nil
	})
	code, _, _ := postInfer(t, srv.Client(), srv.URL, frames)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", code)
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestServeStreamEndpoint: /infer/stream scores NDJSON frames one at a
// time on a dedicated lane, emitting exactly the serial Stream posterior
// per frame; lane exhaustion answers 429 + Retry-After.
func TestServeStreamEndpoint(t *testing.T) {
	eng := serveEngine(t)
	reg := newEngineRegistry(t, eng, sched.Config{MaxBatch: 4, MaxStreams: 1})
	sch := regScheduler(t, reg)
	srv := httptest.NewServer(newServeMux(reg))
	defer srv.Close()

	frames := serveFrames(5, eng.InputDim())
	want := eng.Infer(frames) // Infer is the same serial recurrence

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, f := range frames {
		enc.Encode(f)
	}
	resp, err := srv.Client().Post(srv.URL+"/infer/stream", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/infer/stream status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	got := make([][]float32, 0, len(frames))
	for {
		var row []float32
		if err := dec.Decode(&row); err != nil {
			break
		}
		got = append(got, row)
	}
	if err := samePost(got, want); err != nil {
		t.Fatalf("streamed posteriors diverge from serial Infer: %v", err)
	}

	// Exhaust the stream-lane budget and observe backpressure.
	release, err := sch.AcquireStreamLane()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, err = srv.Client().Post(srv.URL+"/infer/stream", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted stream lanes: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
}

// waitFor spins until cond holds, failing after a liveness bound. No
// timing is asserted — only eventual progress.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
