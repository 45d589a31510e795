// Package registry is the multi-model serving layer: a versioned engine
// registry with atomic hot swap and refcounted drain.
//
// Each registered model name maps to a current *version* — a loaded engine
// (typically a zero-copy mapped bundle), its own continuous-batching
// scheduler, and a reference count. Requests Acquire a lease on the
// current version, serve through its scheduler, and Release; Swap loads
// the replacement, publishes it with one atomic pointer store, and drops
// the registry's reference on the old version. The old version's backing
// storage is released only after its last lease releases, so an mmap'd
// bundle is never unmapped under an in-flight request, no request ever
// observes a torn mix of versions, and no request is dropped during a
// swap.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rtmobile/internal/device"
	"rtmobile/internal/obs"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
)

var (
	// ErrUnknownModel is returned by Acquire / Swap for unregistered names.
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrClosed is returned once the registry has shut down.
	ErrClosed = errors.New("registry: closed")
)

// Instance is one loaded model: the engine plus the hook that releases its
// backing storage (an mmap unmap for v5 bundles). Close may be nil.
type Instance struct {
	Engine *rtmobile.Engine
	Close  func() error
}

// Loader turns a bundle path into a loaded Instance. The default is
// BundleLoader; tests inject their own to observe lifecycle events.
type Loader func(path string) (Instance, error)

// BundleLoader loads deployment bundles via the zero-copy mapped path
// (MapBundle falls back to an arena load where mmap is unavailable), each
// priced under the target it was lowered for; a non-nil target refuses
// bundles lowered for another.
func BundleLoader(target *device.Target) Loader {
	return func(path string) (Instance, error) {
		mb, err := rtmobile.MapBundle(path, target)
		if err != nil {
			return Instance{}, err
		}
		return Instance{Engine: mb.Engine(), Close: mb.Close}, nil
	}
}

// Config configures a Registry.
type Config struct {
	// Loader loads instances; required (use BundleLoader for bundles).
	Loader Loader
	// Sched is the per-model scheduler configuration. Every version gets
	// its own scheduler instance, so panels never mix versions or models.
	Sched sched.Config
}

// engineBatcher adapts an Engine to the scheduler's Batcher interface.
type engineBatcher struct{ eng *rtmobile.Engine }

// Batcher is the adapter every version's scheduler runs on, for callers
// that want a scheduler over an engine without a registry around it.
func Batcher(eng *rtmobile.Engine) sched.Batcher { return engineBatcher{eng: eng} }

func (b engineBatcher) InputDim() int                   { return b.eng.InputDim() }
func (b engineBatcher) OutputDim() int                  { return b.eng.OutputDim() }
func (b engineBatcher) Acquire(width int) sched.Session { return b.eng.AcquireBatch(width) }

// MoveLane carries one utterance between two of this engine's leases.
func (engineBatcher) MoveLane(dst sched.Session, dl int, src sched.Session, sl int) {
	src.(*rtmobile.BatchLease).CopyLaneTo(dst.(*rtmobile.BatchLease), dl, sl)
}

// version is one loaded generation of a model. refs starts at 1 (the
// registry's own reference while the version is current); each lease adds
// one. When refs reaches zero — the version has been superseded AND every
// lease has released — finalize tears down the scheduler and releases the
// backing storage, then closes done.
type version struct {
	id   uint64
	path string
	inst Instance
	sch  *sched.Scheduler
	refs atomic.Int64
	done chan struct{}
}

// incref takes a reference unless the version's count has already hit zero.
func (v *version) incref() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the dropper of the last reference runs
// finalization.
func (v *version) release() {
	if v.refs.Add(-1) != 0 {
		return
	}
	// No leases and no registry reference remain: nothing can be inside
	// the scheduler, so Close returns once its run loop exits.
	v.sch.Close(context.Background())
	if v.inst.Close != nil {
		v.inst.Close()
	}
	close(v.done)
}

// entry is one model name: the atomically-swapped current version plus the
// per-model instruments (which persist across swaps).
type entry struct {
	name    string
	scope   *obs.Scope
	cur     atomic.Pointer[version]
	seq     atomic.Uint64 // version id allocator
	retired atomic.Uint64 // versions fully drained and closed
	swapMu  sync.Mutex    // serializes Swap loads per model
}

// Registry maps model names to hot-swappable engine versions.
type Registry struct {
	cfg    Config
	mu     sync.Mutex
	models map[string]*entry
	order  []string
	closed bool
}

// New builds an empty registry.
func New(cfg Config) (*Registry, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("registry: Config.Loader is required")
	}
	return &Registry{cfg: cfg, models: make(map[string]*entry)}, nil
}

// load builds a fresh version for an entry from a bundle path.
func (r *Registry) load(e *entry, path string) (*version, error) {
	inst, err := r.cfg.Loader(path)
	if err != nil {
		return nil, err
	}
	if inst.Engine == nil {
		return nil, fmt.Errorf("registry: loader returned no engine for %s", path)
	}
	v := &version{
		id:   e.seq.Add(1),
		path: path,
		inst: inst,
		sch:  sched.New(engineBatcher{eng: inst.Engine}, r.cfg.Sched),
		done: make(chan struct{}),
	}
	v.refs.Store(1)
	return v, nil
}

// Register loads a bundle under a new model name. The first registered
// name becomes DefaultModel.
func (r *Registry) Register(name, path string) error {
	if name == "" {
		return fmt.Errorf("registry: empty model name")
	}
	// Load before publishing, so a registered name always has a current
	// version.
	e := &entry{name: name, scope: obs.NewScope(name)}
	v, err := r.load(e, path)
	if err != nil {
		return err
	}
	e.cur.Store(v)
	e.scope.Version.Set(int64(v.id))

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		v.release()
		return ErrClosed
	}
	if _, dup := r.models[name]; dup {
		v.release()
		return fmt.Errorf("registry: model %q already registered", name)
	}
	r.models[name] = e
	r.order = append(r.order, name)
	return nil
}

// Swap loads the bundle at path and atomically publishes it as the model's
// current version. In-flight requests on the old version finish on the old
// version; its storage is released only after the last of them does. New
// acquires after the store see only the new version.
func (r *Registry) Swap(name, path string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	old := e.cur.Load()
	if old == nil {
		return ErrClosed
	}
	v, err := r.load(e, path)
	if err != nil {
		return fmt.Errorf("registry: swap %q: %w", name, err)
	}
	e.cur.Store(v)
	e.scope.SwapsTotal.Inc()
	e.scope.Version.Set(int64(v.id))
	// Retire the old version: drop the registry's reference, and count the
	// retirement once the last lease releases. Its scheduler needs no
	// telling — it never holds a request back, so leased requests finish
	// as fast as the panel steps.
	go func() {
		old.release()
		<-old.done
		e.retired.Add(1)
	}()
	return nil
}

func (r *Registry) lookup(name string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e, nil
}

// Lease is a request-lifetime hold on one model version. Everything
// reached through it — the engine, the scheduler — stays valid until
// Release.
type Lease struct {
	e        *entry
	v        *version
	released bool
}

// Engine returns the leased version's engine.
func (l *Lease) Engine() *rtmobile.Engine { return l.v.inst.Engine }

// Scheduler returns the leased version's scheduler.
func (l *Lease) Scheduler() *sched.Scheduler { return l.v.sch }

// Version returns the leased version's sequence number (1 for the
// registered version, +1 per swap).
func (l *Lease) Version() uint64 { return l.v.id }

// Path returns the bundle path the leased version was loaded from.
func (l *Lease) Path() string { return l.v.path }

// Error records a server-side failure against the model's error counter.
func (l *Lease) Error() { l.e.scope.ErrorsTotal.Inc() }

// ObserveLatency records one request's end-to-end nanoseconds.
func (l *Lease) ObserveLatency(ns int64) { l.e.scope.Latency.Observe(ns) }

// Release drops the lease. Idempotent.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.e.scope.Leases.Add(-1)
	l.v.release()
}

// Acquire takes a lease on the model's current version.
func (r *Registry) Acquire(name string) (*Lease, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	for {
		v := e.cur.Load()
		if v == nil {
			return nil, ErrClosed
		}
		if v.incref() {
			e.scope.RequestsTotal.Inc()
			e.scope.Leases.Add(1)
			return &Lease{e: e, v: v}, nil
		}
		// Lost the race with a swap finalizing this version; reload.
	}
}

// Names returns the registered model names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// DefaultModel returns the first registered model name ("" if none).
func (r *Registry) DefaultModel() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		return ""
	}
	return r.order[0]
}

// ModelStats is one model's registry-level state snapshot.
type ModelStats struct {
	Name     string `json:"name"`
	Path     string `json:"path"`
	Version  uint64 `json:"version"`
	Leases   int64  `json:"leases"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Swaps    uint64 `json:"swaps"`
	Retired  uint64 `json:"retired"`
}

// Stats snapshots one model's state; ok is false for unknown names.
func (r *Registry) Stats(name string) (ModelStats, bool) {
	e, err := r.lookup(name)
	if err != nil {
		return ModelStats{}, false
	}
	s := ModelStats{
		Name:     e.name,
		Requests: e.scope.RequestsTotal.Value(),
		Errors:   e.scope.ErrorsTotal.Value(),
		Swaps:    e.scope.SwapsTotal.Value(),
		Leases:   e.scope.Leases.Value(),
		Retired:  e.retired.Load(),
	}
	if v := e.cur.Load(); v != nil {
		s.Path, s.Version = v.path, v.id
	}
	return s, true
}

// AllStats snapshots every model, sorted by name.
func (r *Registry) AllStats() []ModelStats {
	names := r.Names()
	sort.Strings(names)
	out := make([]ModelStats, 0, len(names))
	for _, n := range names {
		if s, ok := r.Stats(n); ok {
			out = append(out, s)
		}
	}
	return out
}

// Close retires every model: current versions are unpublished and
// finalized once their leases release. Blocks until every version has released its storage or
// ctx expires.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.models))
	for _, e := range r.models {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	var retiring []*version
	for _, e := range entries {
		if v := e.cur.Swap(nil); v != nil {
			v.release()
			retiring = append(retiring, v)
		}
	}
	for _, v := range retiring {
		select {
		case <-v.done:
		case <-ctx.Done():
			return fmt.Errorf("registry: close: %w (version %d of %s still leased)", ctx.Err(), v.id, v.path)
		}
	}
	return nil
}
