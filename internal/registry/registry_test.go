package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

// writeTestBundle compiles a small pruned engine (seeded, so distinct
// seeds give distinct weights) and saves it as a v5 bundle.
func writeTestBundle(t *testing.T, dir string, seed uint64) string {
	t.Helper()
	m := nn.NewGRUModel(nn.ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: seed})
	res := rtmobile.Prune(m, nil, rtmobile.PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := rtmobile.Compile(m, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("m%d.rtmb", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveBundle(f, res.Scheme); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// trackingLoader wraps BundleLoader and records instance lifecycles.
type trackingLoader struct {
	inner  Loader
	mu     sync.Mutex
	loads  []string
	closes []string
}

func newTrackingLoader() *trackingLoader {
	return &trackingLoader{inner: BundleLoader(device.MobileGPU())}
}

func (tl *trackingLoader) load(path string) (Instance, error) {
	inst, err := tl.inner(path)
	if err != nil {
		return Instance{}, err
	}
	tl.mu.Lock()
	tl.loads = append(tl.loads, path)
	tl.mu.Unlock()
	innerClose := inst.Close
	inst.Close = func() error {
		tl.mu.Lock()
		tl.closes = append(tl.closes, path)
		tl.mu.Unlock()
		return innerClose()
	}
	return inst, nil
}

func (tl *trackingLoader) closed() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]string(nil), tl.closes...)
}

func newTestRegistry(t *testing.T) (*Registry, *trackingLoader) {
	t.Helper()
	tl := newTrackingLoader()
	r, err := New(Config{Loader: tl.load, Sched: sched.Config{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Close(ctx)
	})
	return r, tl
}

func testFrames(eng *rtmobile.Engine, n int) [][]float32 {
	frames := make([][]float32, n)
	for i := range frames {
		row := make([]float32, eng.InputDim())
		for j := range row {
			row[j] = float32(i+j) * 0.01
		}
		frames[i] = row
	}
	return frames
}

func TestRegistryRequiresLoader(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil loader accepted")
	}
}

func TestRegisterAcquireRelease(t *testing.T) {
	r, _ := newTestRegistry(t)
	dir := t.TempDir()
	path := writeTestBundle(t, dir, 1)
	if err := r.Register("asr", path); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("", path); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register("asr", path); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := r.Register("broken", filepath.Join(dir, "missing.rtmb")); err == nil {
		t.Fatal("missing bundle accepted")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "asr" {
		t.Fatalf("Names() = %v", got)
	}
	if r.DefaultModel() != "asr" {
		t.Fatalf("DefaultModel() = %q", r.DefaultModel())
	}

	l, err := r.Acquire("asr")
	if err != nil {
		t.Fatal(err)
	}
	if l.Version() != 1 {
		t.Fatalf("Version() = %d, want 1", l.Version())
	}
	if l.Path() != path {
		t.Fatalf("Path() = %q", l.Path())
	}
	out, err := l.Scheduler().Infer(context.Background(), testFrames(l.Engine(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != l.Engine().OutputDim() {
		t.Fatalf("bad inference shape %dx%d", len(out), len(out[0]))
	}
	l.Release()
	l.Release() // idempotent

	if _, err := r.Acquire("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Acquire(unknown) = %v", err)
	}
	s, ok := r.Stats("asr")
	if !ok {
		t.Fatal("Stats(asr) missing")
	}
	if s.Requests != 1 || s.Leases != 0 || s.Version != 1 {
		t.Fatalf("stats %+v", s)
	}
	if _, ok := r.Stats("nope"); ok {
		t.Fatal("Stats(unknown) ok")
	}
}

// TestSwapDrainsOldVersion: the old version's storage is released only
// after its last lease goes away, and new acquires see the new version
// immediately after the swap.
func TestSwapDrainsOldVersion(t *testing.T) {
	r, tl := newTestRegistry(t)
	dir := t.TempDir()
	p1 := writeTestBundle(t, dir, 1)
	p2 := writeTestBundle(t, dir, 2)
	if err := r.Register("asr", p1); err != nil {
		t.Fatal(err)
	}

	held, err := r.Acquire("asr") // keeps v1 alive across the swap
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Swap("asr", p2); err != nil {
		t.Fatal(err)
	}
	if err := r.Swap("missing", p2); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Swap(unknown) = %v", err)
	}
	if err := r.Swap("asr", filepath.Join(dir, "missing.rtmb")); err == nil {
		t.Fatal("swap to missing bundle succeeded")
	}

	fresh, err := r.Acquire("asr")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version() != 2 || fresh.Path() != p2 {
		t.Fatalf("post-swap acquire got version %d path %q", fresh.Version(), fresh.Path())
	}
	fresh.Release()

	// v1 must still be alive: the held lease pins it.
	if closed := tl.closed(); len(closed) != 0 {
		t.Fatalf("old version closed while leased: %v", closed)
	}
	out, err := held.Scheduler().Infer(context.Background(), testFrames(held.Engine(), 2))
	if err != nil || len(out) != 2 {
		t.Fatalf("inference on drained-but-leased version: %v", err)
	}
	held.Release()

	// Now the drain completes asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := r.Stats("asr")
		if s.Retired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old version never retired: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	if closed := tl.closed(); len(closed) != 1 || closed[0] != p1 {
		t.Fatalf("closed = %v, want [%s]", tl.closed(), p1)
	}
	s, _ := r.Stats("asr")
	if s.Swaps != 1 || s.Version != 2 {
		t.Fatalf("stats after swap: %+v", s)
	}
}

// TestConcurrentAcquireDuringSwaps is the core consistency property: under
// continuous concurrent acquire/infer/release, every request observes
// exactly one version (its lease's engine and scheduler belong to the same
// generation), no acquire fails, and every superseded version retires.
func TestConcurrentAcquireDuringSwaps(t *testing.T) {
	r, tl := newTestRegistry(t)
	dir := t.TempDir()
	paths := []string{writeTestBundle(t, dir, 1), writeTestBundle(t, dir, 2)}
	if err := r.Register("asr", paths[0]); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const swaps = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, err := r.Acquire("asr")
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				frames := testFrames(l.Engine(), 2)
				out, err := l.Scheduler().Infer(context.Background(), frames)
				if err != nil {
					t.Errorf("infer: %v", err)
				} else if len(out) != len(frames) {
					t.Errorf("short output %d", len(out))
				}
				l.Release()
				served.Add(1)
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		if err := r.Swap("asr", paths[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no requests served")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := r.Stats("asr")
		if s.Retired == swaps {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retired %d of %d swapped-out versions", s.Retired, swaps)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(tl.closed()); got != swaps {
		t.Fatalf("%d versions closed, want %d", got, swaps)
	}
}

func TestRegistryClose(t *testing.T) {
	tl := newTrackingLoader()
	r, err := New(Config{Loader: tl.load, Sched: sched.Config{MaxBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := writeTestBundle(t, dir, 3)
	if err := r.Register("a", p1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", writeTestBundle(t, dir, 4)); err != nil {
		t.Fatal(err)
	}

	// A held lease makes Close block until release (or ctx expiry).
	l, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Close(ctx); err == nil {
		t.Fatal("Close returned while a lease was held")
	}
	l.Release()

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := r.Close(ctx2); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(ctx2); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := len(tl.closed()); got != 2 {
		t.Fatalf("%d instances closed, want 2", got)
	}
	if _, err := r.Acquire("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after close = %v", err)
	}
	if err := r.Register("c", p1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after close = %v", err)
	}
	if err := r.Swap("a", p1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Swap after close = %v", err)
	}
}

func TestAllStatsSorted(t *testing.T) {
	r, _ := newTestRegistry(t)
	dir := t.TempDir()
	if err := r.Register("zeta", writeTestBundle(t, dir, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("alpha", writeTestBundle(t, dir, 6)); err != nil {
		t.Fatal(err)
	}
	all := r.AllStats()
	if len(all) != 2 || all[0].Name != "alpha" || all[1].Name != "zeta" {
		t.Fatalf("AllStats = %+v", all)
	}
	if r.DefaultModel() != "zeta" {
		t.Fatalf("DefaultModel = %q, want first registered", r.DefaultModel())
	}
}

// TestManyModelsShareOneBundleFile: 16 registry entries over one bundle
// file all serve correctly — the deployment shape the zero-copy mapping
// exists for.
func TestManyModelsShareOneBundleFile(t *testing.T) {
	r, _ := newTestRegistry(t)
	path := writeTestBundle(t, t.TempDir(), 7)
	for i := 0; i < 16; i++ {
		if err := r.Register(fmt.Sprintf("m%02d", i), path); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range r.Names() {
		l, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Scheduler().Infer(context.Background(), testFrames(l.Engine(), 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l.Release()
	}
}
