package rtmobile

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
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
	loaded, scheme, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
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
	loaded, _, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileCPU())
	if err != nil {
		t.Fatal(err)
	}
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
	loaded, _, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
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
	// The search's own record, then a measured one as older writers stored
	// them: both must survive the trip with the tuned tile.
	for _, rec := range []TuneRecord{eng.Tuned(), {Mode: TuneMeasured, Cost: 1234}} {
		eng.tuned = rec
		var buf bytes.Buffer
		if err := eng.SaveBundle(&buf, res.Scheme); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileGPU())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Tuned() != rec {
			t.Fatalf("plan cache lost on reload: %+v vs %+v", loaded.Tuned(), rec)
		}
		if loaded.Plan().Options.Tile != eng.Plan().Options.Tile {
			t.Fatalf("tuned tile lost on reload: %+v vs %+v",
				loaded.Plan().Options.Tile, eng.Plan().Options.Tile)
		}
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
	loaded, _, err := LoadBundle(bytes.NewReader(buf.Bytes()), device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Plan().Options.Tile.Placement; got != compiler.PlaceRegisters {
		t.Fatalf("placement lost on reload: %v", got)
	}
}

func TestLoadBundleRejectsGarbage(t *testing.T) {
	if _, _, err := LoadBundle(bytes.NewReader([]byte("XXXXgarbage")), device.MobileGPU()); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, err := LoadBundle(bytes.NewReader(nil), device.MobileGPU()); err == nil {
		t.Fatal("empty accepted")
	}
}

// validBundleImage serializes a small engine to bytes for corruption tests.
// Fixed header offsets (little-endian): magic 4 | version 4 | spec 48 |
// scheme 32 | options 20 | flags 3 | plan cache 13 | quant 1 |
// precision 1 | param count 4 | first param name length at 130.
func validBundleImage(t *testing.T) []byte {
	t.Helper()
	m := testModel(48)
	res := Prune(m, nil, PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// The fixed byte offsets below describe the v4 stream layout, so this
	// helper pins version 4 regardless of the current default.
	if err := eng.saveBundleV4(&buf, res.Scheme); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const (
	bundleOffVersion   = 4
	bundleOffUnroll    = 104 // third tile word
	bundleOffPlanCache = 111 // tuneMode u8 | placement u32 | tuneCost f64
	bundleOffQuant     = 124 // quantBits u8 (v3)
	bundleOffPrecision = 125 // precision u8 (v4)
	bundleOffCount     = 126
	bundleOffNameLen   = 130
)

// asV1 rewrites a v4 image as the version-1 layout: the 13-byte plan-cache
// section, the quantization byte, and the precision byte did not exist,
// and the version field says 1.
func asV1(image []byte) []byte {
	v1 := append([]byte(nil), image[:bundleOffPlanCache]...)
	v1 = append(v1, image[bundleOffCount:]...)
	binary.LittleEndian.PutUint32(v1[bundleOffVersion:], 1)
	return v1
}

// asV2 rewrites a v4 image as the version-2 layout: plan cache present,
// quantization and precision bytes absent.
func asV2(image []byte) []byte {
	v2 := append([]byte(nil), image[:bundleOffQuant]...)
	v2 = append(v2, image[bundleOffCount:]...)
	binary.LittleEndian.PutUint32(v2[bundleOffVersion:], 2)
	return v2
}

// asV3 rewrites a v4 image as the version-3 layout: quantization byte
// present, precision byte absent.
func asV3(image []byte) []byte {
	v3 := append([]byte(nil), image[:bundleOffPrecision]...)
	v3 = append(v3, image[bundleOffCount:]...)
	binary.LittleEndian.PutUint32(v3[bundleOffVersion:], 3)
	return v3
}

func TestLoadBundleVersion1(t *testing.T) {
	image := validBundleImage(t)
	eng, scheme, err := LoadBundle(bytes.NewReader(asV1(image)), device.MobileGPU())
	if err != nil {
		t.Fatalf("v1 bundle rejected: %v", err)
	}
	if scheme.ColRate != 2 {
		t.Fatalf("v1 scheme lost: %+v", scheme)
	}
	// v1 predates the plan cache, so the loaded engine reports no tuning.
	if eng.Tuned().Mode != TuneNone {
		t.Fatalf("v1 bundle invented a plan cache: %+v", eng.Tuned())
	}
}

func TestLoadBundleVersion2(t *testing.T) {
	image := validBundleImage(t)
	eng, scheme, err := LoadBundle(bytes.NewReader(asV2(image)), device.MobileGPU())
	if err != nil {
		t.Fatalf("v2 bundle rejected: %v", err)
	}
	if scheme.ColRate != 2 {
		t.Fatalf("v2 scheme lost: %+v", scheme)
	}
	// v2 predates quantization, so the loaded engine serves float weights.
	if bits, _, _ := eng.Quantized(); bits != 0 {
		t.Fatalf("v2 bundle invented quantization: %d bits", bits)
	}
}

func TestLoadBundleVersion3(t *testing.T) {
	image := validBundleImage(t)
	eng, scheme, err := LoadBundle(bytes.NewReader(asV3(image)), device.MobileGPU())
	if err != nil {
		t.Fatalf("v3 bundle rejected: %v", err)
	}
	if scheme.ColRate != 2 {
		t.Fatalf("v3 scheme lost: %+v", scheme)
	}
	// v3 predates the precision tier, so the loaded engine runs exact
	// kernels (the historical behavior).
	if tier, _, _ := eng.Precision(); tier != compiler.PrecisionExact {
		t.Fatalf("v3 bundle invented a precision tier: %v", tier)
	}
}

// TestLoadBundleCorrupt drives corrupted and truncated images of both
// bundle versions through LoadBundle: every case must return a descriptive
// error, never panic or over-allocate.
func TestLoadBundleCorrupt(t *testing.T) {
	image := validBundleImage(t)
	nameLen := int(binary.LittleEndian.Uint32(image[bundleOffNameLen:]))
	kindOff := bundleOffNameLen + 4 + nameLen

	patch := func(off int, b []byte) []byte {
		out := append([]byte(nil), image...)
		copy(out[off:], b)
		return out
	}
	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return b[:]
	}
	const offHidden = 16 // spec word 1
	u64 := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	cases := []struct {
		name    string
		image   []byte
		wantErr string
	}{
		{"bad magic", patch(0, []byte("NOPE")), "bad bundle magic"},
		{"future version", patch(bundleOffVersion, u32(99)), "unsupported bundle version"},
		{"truncated version", image[:6], "bundle version"},
		{"truncated spec", image[:30], "model spec"},
		// A spec is validated before any shape is built from it, and no
		// weight storage exists before its payload arrives.
		{"absurd spec", []byte("RTMB\x01\x00\x00\x00" + strings.Repeat("0", 110)), "corrupt model spec"},
		{"spec past the parameter bound", patch(offHidden, u64(1<<20)), "parameters"},
		{"spec larger than its payloads", patch(offHidden, u64(1<<10)), "shape"},
		{"truncated scheme", image[:70], "prune scheme"},
		{"truncated options", image[:100], "compiler options"},
		{"truncated flags", image[:110], "compiler flags"},
		{"truncated plan cache", image[:115], "plan cache"},
		{"bad tune mode", patch(bundleOffPlanCache, []byte{200}), "unknown tune mode"},
		{"truncated quant width", image[:bundleOffQuant], "quantization width"},
		{"bad quant width", patch(bundleOffQuant, []byte{9}), "corrupt quantization width"},
		{"truncated precision tier", image[:bundleOffPrecision], "precision tier"},
		{"bad precision tier", patch(bundleOffPrecision, []byte{9}), "corrupt precision tier"},
		{"truncated param count", image[:bundleOffCount+2], "param count"},
		{"wrong param count", patch(bundleOffCount, u32(99)), "bundle has 99 params"},
		{"huge name length", patch(bundleOffNameLen, u32(0xFFFFFFFF)), "corrupt name length"},
		{"truncated name", image[:bundleOffNameLen+4+1], "reading name"},
		{"wrong name", patch(bundleOffNameLen+4, []byte("zzz")), "param order mismatch"},
		{"bad payload kind", patch(kindOff, []byte{7}), "unknown payload kind"},
		{"truncated payload", image[:kindOff+3], ""},
		{"v1 truncated header", asV1(image)[:80], "prune scheme"},
		{"v1 truncated payload", asV1(image)[:200], ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := LoadBundle(bytes.NewReader(tc.image), device.MobileGPU())
			if err == nil {
				t.Fatal("corrupt bundle accepted")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadBundleTruncationSweep: no strict prefix of a valid bundle loads,
// and none of them panic.
func TestLoadBundleTruncationSweep(t *testing.T) {
	image := validBundleImage(t)
	for cut := 0; cut < len(image); cut += 97 {
		if _, _, err := LoadBundle(bytes.NewReader(image[:cut]), device.MobileGPU()); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}
