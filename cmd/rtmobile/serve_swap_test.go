package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

// Hot-swap serving tests: while clients hammer /infer/{model} through a
// real httptest.Server, an admin goroutine swaps the model's bundle back
// and forth. Every response must be a complete posterior from exactly one
// bundle version (never a torn mix), there must be zero 5xx (in-flight
// requests finish on the version they acquired), and every superseded
// version must fully retire — scheduler closed, mapping released — once
// its last lease drops. Run under -race via the Makefile race target.

// swapBundle compiles a small pruned engine and writes its v5 bundle,
// returning the path and the engine (serial ground truth).
func swapBundle(t *testing.T, dir string, seed uint64) (string, *rtmobile.Engine) {
	t.Helper()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 16, NumLayers: 1, OutputDim: 6, Seed: seed,
	})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
	})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("swap-%d.rtmb", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := eng.SaveBundle(f, res.Scheme); err != nil {
		t.Fatal(err)
	}
	return path, eng
}

// TestServeHotSwapConcurrent: 2/8/32 concurrent clients score against a
// model being swapped between two bundles mid-traffic.
func TestServeHotSwapConcurrent(t *testing.T) {
	dir := t.TempDir()
	p1, eng1 := swapBundle(t, dir, 41)
	p2, eng2 := swapBundle(t, dir, 42)

	frames := serveFrames(4, eng1.InputDim())
	want1 := eng1.Infer(frames) // mapped loads are bit-identical, so the
	want2 := eng2.Infer(frames) // in-memory engines are the ground truth

	for _, clients := range []int{2, 8, 32} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			reg, err := registry.New(registry.Config{
				Loader: registry.BundleLoader(device.MobileCPU()),
				Sched: sched.Config{
					MaxBatch: 8, QueueDepth: 8 * clients,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register("asr", p1); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(newServeMux(reg))
			defer srv.Close()

			// The swapper publishes up to 6 replacements and stops early if the
			// clients finish first; swaps (read after swapDone) counts the ones
			// it made.
			swaps := 0
			stopSwaps := make(chan struct{})
			swapDone := make(chan struct{})
			go func() {
				defer close(swapDone)
				paths := [2]string{p2, p1}
				for i := 0; i < 6; i++ {
					select {
					case <-stopSwaps:
						return
					default:
					}
					if err := reg.Swap("asr", paths[i%2]); err != nil {
						t.Errorf("swap %d: %v", i, err)
						return
					}
					swaps++
					time.Sleep(200 * time.Microsecond)
				}
			}()

			// Clients alternate the named route and the default route (the
			// only registered model is the default). Every response must be
			// 200 and bit-identical to exactly one bundle's serial answer.
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for req := 0; req < 4; req++ {
						path := "/infer/asr"
						if (c+req)%2 == 1 {
							path = "/infer"
						}
						body, _ := json.Marshal(frames)
						resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
						if err != nil {
							t.Errorf("client %d req %d: %v", c, req, err)
							return
						}
						var post [][]float32
						decErr := json.NewDecoder(resp.Body).Decode(&post)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("client %d req %d: status %d mid-swap (want zero non-200)", c, req, resp.StatusCode)
							return
						}
						if decErr != nil {
							t.Errorf("client %d req %d: decode: %v", c, req, decErr)
							return
						}
						if samePost(post, want1) != nil && samePost(post, want2) != nil {
							t.Errorf("client %d req %d: response matches neither bundle version (torn swap?)", c, req)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(stopSwaps)
			<-swapDone

			// Every superseded version fully retires once traffic stops:
			// the swapper published `swaps` replacements, so `swaps` old
			// versions must drain, close their schedulers, and release
			// their mappings.
			waitFor(t, "retired versions drained", func() bool {
				st, ok := reg.Stats("asr")
				return ok && st.Retired == uint64(swaps) && st.Leases == 0
			})
			st, _ := reg.Stats("asr")
			if st.Errors != 0 {
				t.Fatalf("server-side errors during swaps: %d", st.Errors)
			}
			if err := reg.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// nanScaleBundle writes a well-formed 8-bit v5 bundle whose first program's
// first quantization scale is NaN: the section and directory checksums are
// recomputed, so only scale validation can tell.
func nanScaleBundle(t *testing.T, dir string) string {
	t.Helper()
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 8, Hidden: 16, NumLayers: 1, OutputDim: 6, Seed: 43})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU(), Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	b, le := buf.Bytes(), binary.LittleEndian
	count := int(le.Uint32(b[8:]))
	metaOff, metaLen := le.Uint64(b[16:]), le.Uint64(b[24:]) // section 1, the metadata, is first
	var meta struct {
		Programs []struct {
			SecScales uint32 `json:"sec_scales"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(b[metaOff:metaOff+metaLen], &meta); err != nil || len(meta.Programs) == 0 {
		t.Fatalf("bundle metadata: %v", err)
	}
	for i := 0; i < count; i++ {
		if d := b[12+24*i:]; le.Uint32(d) == meta.Programs[0].SecScales {
			off, n := le.Uint64(d[4:]), le.Uint64(d[12:])
			le.PutUint32(b[off:], math.Float32bits(float32(math.NaN())))
			le.PutUint32(d[20:], crc32.ChecksumIEEE(b[off:off+n]))
		}
	}
	dirEnd := 12 + 24*count
	le.PutUint32(b[dirEnd:], crc32.ChecksumIEEE(b[12:dirEnd]))
	path := filepath.Join(dir, "nan-scale.rtmb")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeSwapRejectsCorruptScales: a replacement bundle with a NaN
// quantization scale is refused with 400 and the serving version stays —
// it used to be accepted, after which every /infer answered 500. So is one
// serving cannot run as written (a version-4 file), naming the command that
// upgrades it.
func TestServeSwapRejectsCorruptScales(t *testing.T) {
	dir := t.TempDir()
	good, eng := swapBundle(t, dir, 41)
	reg, err := registry.New(registry.Config{
		Loader: registry.BundleLoader(device.MobileCPU()),
		Sched:  sched.Config{MaxBatch: 8, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	if err := reg.Register("asr", good); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(reg))
	defer srv.Close()

	v4 := filepath.Join(dir, "v4.rtmb")
	if err := os.WriteFile(v4, append([]byte("RTMB\x04\x00\x00\x00"), make([]byte, 128)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for bad, why := range map[string]string{
		nanScaleBundle(t, dir): "scale",
		v4:                     "rtmobile deploy -in",
	} {
		body, _ := json.Marshal(map[string]string{"path": bad})
		resp, err := srv.Client().Post(srv.URL+"/admin/models/asr/swap", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), why) {
			t.Fatalf("swap to %s: status %d %q, want 400 naming %q", bad, resp.StatusCode, msg, why)
		}
		if st, _ := reg.Stats("asr"); st.Version != 1 || st.Path != good {
			t.Fatalf("after the refused swap the model is version %d at %q, want 1 at %q", st.Version, st.Path, good)
		}
	}
	frames := serveFrames(4, eng.InputDim())
	body, _ := json.Marshal(frames)
	resp, err := srv.Client().Post(srv.URL+"/infer/asr", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var post [][]float32
	if err := json.NewDecoder(resp.Body).Decode(&post); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/infer after the refused swap: status %d, %v", resp.StatusCode, err)
	}
	if err := samePost(post, eng.Infer(frames)); err != nil {
		t.Fatalf("/infer after the refused swap: %v", err)
	}
}
