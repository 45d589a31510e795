package rtmobile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
)

func TestBundleRoundTrip(t *testing.T) {
	m := testModel(40)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	mb, err := mapImage(t, buf.Bytes(), device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
	loaded, scheme := mb.Engine(), mb.Scheme()
	if scheme.ColRate != 4 || scheme.RowRate != 2 {
		t.Fatalf("scheme lost: %+v", scheme)
	}
	// The loaded engine computes identical posteriors (GPU path weights are
	// already fp16, so BSPC-16 storage is lossless here).
	frames := testFrames(41, 12, 8)
	a := eng.Infer(frames)
	b := loaded.Infer(frames)
	for t2 := range a {
		for j := range a[t2] {
			if math.Abs(float64(a[t2][j]-b[t2][j])) > 1e-6 {
				t.Fatalf("posterior (%d,%d) differs: %v vs %v", t2, j, a[t2][j], b[t2][j])
			}
		}
	}
	// Plans agree too.
	if loaded.Latency().TotalUS != eng.Latency().TotalUS {
		t.Fatalf("latency differs after reload: %v vs %v",
			loaded.Latency().TotalUS, eng.Latency().TotalUS)
	}
}

func TestBundleSmallerThanDenseCheckpoint(t *testing.T) {
	// The BSPC bundle of a heavily pruned model must be much smaller than
	// the dense fp32 checkpoint.
	m := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 256, NumLayers: 2, OutputDim: 39, Seed: 42})
	res := Prune(m, nil, PruneConfig{ColRate: 16, RowRate: 2, RowGroups: 8, ColBlocks: 8})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	var dense bytes.Buffer
	if err := m.Save(&dense); err != nil {
		t.Fatal(err)
	}
	// The bundle carries the programs and the biases, no dense weights.
	var bundle bytes.Buffer
	if err := eng.SaveBundle(&bundle, res.Scheme); err != nil {
		t.Fatal(err)
	}
	ratio := float64(dense.Len()) / float64(bundle.Len())
	if ratio < 10 {
		t.Fatalf("bundle only %.1fx smaller than dense checkpoint (%d vs %d bytes)",
			ratio, bundle.Len(), dense.Len())
	}
}

func TestBundleCPUPathRawWeights(t *testing.T) {
	// CPU deployments at fp32 must round-trip bit-exactly even via BSPC
	// (value width 32).
	m := testModel(43)
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	loaded := mustMap(t, buf.Bytes(), device.MobileCPU())
	a, b := eng.denseModel().Params(), loaded.denseModel().Params()
	for i := range a {
		if !a[i].W.Equal(b[i].W) {
			t.Fatalf("%s not bit-exact after fp32 bundle round trip", a[i].Name)
		}
	}
}

func TestBundleDenseFormat(t *testing.T) {
	m := testModel(44)
	eng, err := Compile(m, PruneConfig{}.Scheme(), DeployConfig{
		Target: device.MobileGPU(), Format: compiler.FormatDense})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, PruneConfig{}.Scheme()); err != nil {
		t.Fatal(err)
	}
	loaded := mustMap(t, buf.Bytes(), device.MobileGPU())
	if loaded.Plan().Options.Format != compiler.FormatDense {
		t.Fatal("format not preserved")
	}
}

func TestBundlePlanCacheRoundTrip(t *testing.T) {
	m := testModel(46)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{
		Target: device.MobileGPU(), AutoTuneTiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tuned().Mode != TuneAnalytic || eng.Tuned().Cost <= 0 {
		t.Fatalf("tuning left no plan-cache entry: %+v", eng.Tuned())
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	loaded := mustMap(t, buf.Bytes(), device.MobileGPU())
	if loaded.Tuned() != eng.Tuned() {
		t.Fatalf("plan cache lost on reload: %+v vs %+v", loaded.Tuned(), eng.Tuned())
	}
	if loaded.Plan().Options.Tile != eng.Plan().Options.Tile {
		t.Fatalf("tuned tile lost on reload: %+v vs %+v",
			loaded.Plan().Options.Tile, eng.Plan().Options.Tile)
	}
}

func TestBundlePreservesPlacement(t *testing.T) {
	// v1 dropped Tile.Placement on serialization; v2 must keep it.
	m := testModel(47)
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	tile := compiler.DefaultTile()
	tile.Placement = compiler.PlaceRegisters
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU(), Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	loaded := mustMap(t, buf.Bytes(), device.MobileGPU())
	if got := loaded.Plan().Options.Tile.Placement; got != compiler.PlaceRegisters {
		t.Fatalf("placement lost on reload: %v", got)
	}
}

func TestLoadBundleRejectsGarbage(t *testing.T) {
	if _, _, _, err := ReadBundle(bytes.NewReader([]byte("XXXXgarbage")), device.MobileGPU()); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, _, err := ReadBundle(bytes.NewReader(nil), device.MobileGPU()); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestLoadBundleTruncationSweep: no strict prefix of a valid bundle loads,
// and none of them panic.
func TestLoadBundleTruncationSweep(t *testing.T) {
	eng, _ := v5TestEngine(t, 48, DeployConfig{})
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, testScheme()); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	for cut := 0; cut < len(image); cut += 97 {
		if _, _, _, err := ReadBundle(bytes.NewReader(image[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

// TestReadBundleKeepsValueWidth: a bundle names the target it was lowered
// for, through its plan's value width and thread count. Under a nil target
// both readers take that one: MapBundle prices the engine as it, and
// ReadBundle re-deploys for it. Either refuses a target of the other width,
// naming both — lowering again would round an fp32 deployment's weights to
// fp16, and serving would price fp32 programs as the GPU.
func TestReadBundleKeepsValueWidth(t *testing.T) {
	m := testModel(49)
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	namesBoth := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "kryo485-cpu") && strings.Contains(err.Error(), "adreno640-gpu")
	}
	if _, _, _, err := ReadBundle(bytes.NewReader(image), device.MobileGPU()); !namesBoth(err) {
		t.Fatalf("ReadBundle for the gpu: error %v, want one naming both targets", err)
	}
	if _, err := mapImage(t, image, device.MobileGPU()); !namesBoth(err) {
		t.Fatalf("MapBundle for the gpu: error %v, want one naming both targets", err)
	}
	_, _, cfg, err := ReadBundle(bytes.NewReader(image), nil)
	if err != nil || cfg.Target.Name != "kryo485-cpu" {
		t.Fatalf("ReadBundle for the recorded target: %v, target %v", err, cfg.Target)
	}
	again, _ := relower(t, image, nil)
	sameEnginePosteriors(t, eng, again, 50)
	mapped := mustMap(t, image, nil)
	if name := mapped.Target().Name; name != "kryo485-cpu" || mapped.Latency() != eng.Latency() {
		t.Fatalf("mapped under its own target: priced as %s at %+v, want kryo485-cpu at %+v", name, mapped.Latency(), eng.Latency())
	}
	sameEnginePosteriors(t, eng, mapped, 51)
}

// denseModel is the dense model e's programs were lowered from.
func (e *Engine) denseModel() *nn.Model { return denseOf(e.shell, e.progs) }

// mapImage writes image to a temp file and maps it for target; the bundle
// is closed when the test ends.
func mapImage(tb testing.TB, image []byte, target *device.Target) (*MappedBundle, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "model.rtmb")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		tb.Fatal(err)
	}
	mb, err := MapBundle(path, target)
	if err == nil {
		tb.Cleanup(func() { mb.Close() })
	}
	return mb, err
}

// mustMap is mapImage failing the test on an error; it returns the engine.
func mustMap(tb testing.TB, image []byte, target *device.Target) *Engine {
	tb.Helper()
	mb, err := mapImage(tb, image, target)
	if err != nil {
		tb.Fatal(err)
	}
	return mb.Engine()
}

// relower reads image back (ReadBundle) and lowers it again under its
// recorded DeployConfig: the re-deploy `rtmobile deploy -in` runs when no
// flag is set.
func relower(tb testing.TB, image []byte, target *device.Target) (*Engine, prune.BSP) {
	tb.Helper()
	model, scheme, cfg, err := ReadBundle(bytes.NewReader(image), target)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := Compile(model, scheme, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, scheme
}

// refused asserts err is a reader's refusal of a file it cannot run as
// written: it must name the command that upgrades it.
func refused(tb testing.TB, label string, err error) {
	tb.Helper()
	if err == nil || !strings.Contains(err.Error(), "re-deploy it with rtmobile deploy -in ") {
		tb.Fatalf("%s: error %v, want a refusal naming rtmobile deploy -in", label, err)
	}
}
