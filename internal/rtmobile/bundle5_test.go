package rtmobile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
)

// v5TestEngine compiles a pruned test engine for bundle round-trips.
func v5TestEngine(t *testing.T, seed uint64, cfg DeployConfig) (*Engine, nn.ModelSpec) {
	t.Helper()
	m := testModel(seed)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	if cfg.Target == nil {
		cfg.Target = device.MobileGPU()
	}
	eng, err := Compile(m, res.Scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m.Spec
}

func testScheme() (s prune.BSP) {
	s.ColRate, s.RowRate, s.NumRowGroups, s.NumColBlocks = 4, 2, 4, 4
	return s
}

// writeBundleFile saves the engine to a temp file and returns the path.
func writeBundleFile(t *testing.T, eng *Engine) string {
	t.Helper()
	return writeBundleFileScheme(t, eng, testScheme())
}

// writeBundleFileScheme is writeBundleFile recording the given scheme.
func writeBundleFileScheme(t *testing.T, eng *Engine, scheme prune.BSP) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.rtmb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveBundle(f, scheme); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// samePosteriors fails unless both engines produce bit-identical output on
// the same frames.
func sameEnginePosteriors(t *testing.T, want, got *Engine, seed uint64) {
	t.Helper()
	frames := testFrames(seed, 12, want.InputDim())
	a, b := want.Infer(frames), got.Infer(frames)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("posterior (%d,%d) differs: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestMapBundleBitIdentical: a mapped engine serves bit-identical
// posteriors to the compiled engine, reports the mapped state, and exposes
// the packed programs by name.
func TestMapBundleBitIdentical(t *testing.T) {
	eng, _ := v5TestEngine(t, 95, DeployConfig{})
	path := writeBundleFile(t, eng)
	mb, err := MapBundle(path, device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if mb.mapped != mmapBuilt {
		t.Fatalf("mapped = %v on a build with mmap support = %v", mb.mapped, mmapBuilt)
	}
	if mb.Scheme().ColRate != 4 {
		t.Fatalf("scheme lost: %+v", mb.Scheme())
	}
	sameEnginePosteriors(t, eng, mb.Engine(), 96)
	if mb.Engine().Tuned() != eng.Tuned() {
		t.Fatalf("plan cache not honored from mapped tune section: %+v vs %+v",
			mb.Engine().Tuned(), eng.Tuned())
	}
	names := programNames(mb)
	if len(names) == 0 {
		t.Fatal("no packed programs in mapped bundle")
	}
	for _, n := range names {
		if pp := mb.Packed(n); pp == nil || pp.Bits != 0 || len(pp.Vals) == 0 {
			t.Fatalf("Packed(%q) = %+v for float bundle, want float32 values", n, pp)
		}
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mb.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestMapBundleQuantized: a quantized deployment maps with its storage
// width recorded, serves bit-identically, and saves back to the very bytes
// it was loaded from — the codes the writer re-derives from the program's
// dequantized values are the ones in the file.
func TestMapBundleQuantized(t *testing.T) {
	eng, _ := v5TestEngine(t, 97, DeployConfig{Target: device.MobileCPU(), Quant: 8})
	path := writeBundleFile(t, eng)
	mb, err := MapBundle(path, device.MobileCPU())
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	sameEnginePosteriors(t, eng, mb.Engine(), 98)
	for _, n := range programNames(mb) {
		if pq := mb.Packed(n); pq == nil || pq.Bits != 8 || len(pq.Vals) == 0 {
			t.Fatalf("Packed(%q) = %+v for 8-bit bundle, want an 8-bit program", n, pq)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mb.Engine().SaveBundleVersion(&buf, testScheme(), 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file) {
		t.Fatal("a mapped 8-bit bundle no longer saves to the bytes it was loaded from")
	}
}

// --- corruption ----------------------------------------------------------

// v5Mutate returns a copy of image with mutate applied. fixDir recomputes
// the directory checksum afterwards, so directory-field corruptions are
// exercised on their own merits rather than caught by the CRC.
func v5Mutate(image []byte, fixDir bool, mutate func([]byte)) []byte {
	out := append([]byte(nil), image...)
	mutate(out)
	if fixDir {
		le := binary.LittleEndian
		count := le.Uint32(out[8:])
		dirEnd := 12 + 24*int(count)
		le.PutUint32(out[dirEnd:], crc32.ChecksumIEEE(out[12:dirEnd]))
	}
	return out
}

// TestLoadBundleV5Corrupt: every corruption class yields a contextual
// error from ReadBundle — never a panic, never a silent misload.
func TestLoadBundleV5Corrupt(t *testing.T) {
	eng, _ := v5TestEngine(t, 101, DeployConfig{})
	var buf bytes.Buffer
	if err := eng.SaveBundleVersion(&buf, testScheme(), 5); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	le := binary.LittleEndian

	cases := []struct {
		name    string
		image   []byte
		wantErr string
	}{
		{"bad magic", v5Mutate(image, false, func(b []byte) { copy(b, "XXXX") }), "magic"},
		{"future version", v5Mutate(image, false, func(b []byte) { le.PutUint32(b[4:], 99) }), "version"},
		{"zero section count", v5Mutate(image, false, func(b []byte) { le.PutUint32(b[8:], 0) }), "section count"},
		{"huge section count", v5Mutate(image, false, func(b []byte) { le.PutUint32(b[8:], 1<<30) }), "section count"},
		{"truncated section table", image[:20], "truncated"},
		{"truncated payloads", image[:len(image)-64], "out of range"},
		{"directory checksum", v5Mutate(image, false, func(b []byte) { b[13] ^= 0xff }), "directory checksum"},
		{"offset out of range", v5Mutate(image, true, func(b []byte) {
			past := (uint64(len(b)) + v5Align - 1) &^ uint64(v5Align-1) // aligned, past EOF
			le.PutUint64(b[12+4:], past+v5Align)
		}), "out of range"},
		{"misaligned offset", v5Mutate(image, true, func(b []byte) {
			off := le.Uint64(b[12+4:])
			le.PutUint64(b[12+4:], off+1)
		}), "alignment"},
		{"length overflow", v5Mutate(image, true, func(b []byte) {
			le.PutUint64(b[12+12:], ^uint64(0)) // length u64 max: must not wrap
		}), "out of range"},
		{"payload checksum", v5Mutate(image, false, func(b []byte) { b[len(b)-1] ^= 0xff }), "checksum"},
		{"duplicate section id", v5Mutate(image, true, func(b []byte) {
			copy(b[12+24:12+28], b[12:12+4]) // second entry takes first entry's id
		}), "duplicate"},
		{"meta not json", v5Mutate(image, true, func(b []byte) {
			off := le.Uint64(b[12+4:]) // section 1 = metadata; zap its payload and re-CRC
			b[off] = '!'
			length := le.Uint64(b[12+12:])
			le.PutUint32(b[12+20:], crc32.ChecksumIEEE(b[off:off+length]))
		}), "metadata"},
		// A compact file's weight matrices live in its programs only: when
		// a program no longer passes as executable, nothing else can stand
		// in for the param it covered.
		{"absurd spec", v5PatchMeta(t, image, func(m *v5Meta) { m.Spec.Hidden = 1 << 62 }), "corrupt model spec"},
		{"program unusable beside a param without a section", v5PatchMeta(t, image, func(m *v5Meta) {
			m.Programs[0].Name = "stale"
		}), "stores no programs an engine executes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ReadBundle(bytes.NewReader(tc.image), device.MobileGPU())
			if err == nil {
				t.Fatal("corrupt v5 bundle accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// v5PatchScale returns a copy of a quantized v5 image whose first program's
// first scale is v, with that section's checksum and the directory's
// recomputed — a well-formed file carrying a corrupt scale.
func v5PatchScale(tb testing.TB, image []byte, v float32) []byte {
	tb.Helper()
	le := binary.LittleEndian
	entry := image[12 : 12+24] // section 1, the metadata, is always first
	off, length := le.Uint64(entry[4:]), le.Uint64(entry[12:])
	var meta v5Meta
	if err := json.Unmarshal(image[off:off+length], &meta); err != nil {
		tb.Fatal(err)
	}
	if len(meta.Programs) == 0 || meta.Programs[0].SecScales == 0 {
		tb.Fatal("image has no quantized program")
	}
	return v5Mutate(image, true, func(b []byte) {
		for i := 0; i < int(le.Uint32(b[8:])); i++ {
			d := b[12+24*i:]
			if le.Uint32(d) != meta.Programs[0].SecScales {
				continue
			}
			off, length := le.Uint64(d[4:]), le.Uint64(d[12:])
			le.PutUint32(b[off:], math.Float32bits(v))
			le.PutUint32(d[20:], crc32.ChecksumIEEE(b[off:off+length]))
		}
	})
}

// TestLoadBundleRejectsCorruptScales: a scale that is NaN, infinite, zero
// or negative would dequantize every weight of its row to garbage, so both
// loaders refuse the bundle instead of serving non-finite posteriors.
func TestLoadBundleRejectsCorruptScales(t *testing.T) {
	image := readFixture(t, "parent_v5_q8.rtmb")
	dir := t.TempDir()
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, -0.01} {
		bad := v5PatchScale(t, image, v)
		if _, _, _, err := ReadBundle(bytes.NewReader(bad), device.MobileCPU()); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: ReadBundle error %v, want one naming the scale", v, err)
		}
		path := filepath.Join(dir, "bad.rtmb")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if mb, err := MapBundle(path, device.MobileCPU()); err == nil || !strings.Contains(err.Error(), "scale") {
			if err == nil {
				mb.Close()
			}
			t.Errorf("scale %v: MapBundle error %v, want one naming the scale", v, err)
		}
	}
}

// TestMapBundleCorruptFile: the file-based loader surfaces the same
// contextual errors (and unmaps on the way out).
func TestMapBundleCorruptFile(t *testing.T) {
	eng, _ := v5TestEngine(t, 103, DeployConfig{})
	var buf bytes.Buffer
	if err := eng.SaveBundleVersion(&buf, testScheme(), 5); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := MapBundle(write("magic", v5Mutate(image, false, func(b []byte) { copy(b, "NOPE") })),
		device.MobileGPU()); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
	if _, err := MapBundle(write("crc", v5Mutate(image, false, func(b []byte) { b[len(b)-1] ^= 1 })),
		device.MobileGPU()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("payload corruption not rejected: %v", err)
	}
	if _, err := MapBundle(write("trunc", image[:9]), device.MobileGPU()); err == nil {
		t.Fatal("truncated header not rejected")
	}
	if _, err := MapBundle(filepath.Join(dir, "missing"), device.MobileGPU()); err == nil {
		t.Fatal("missing file not rejected")
	}
}

// --- allocation gates ----------------------------------------------------

// TestMapBundleLoadAllocsWeightIndependent: mapping performs zero
// per-weight allocations — the allocation count of MapBundle stays flat
// while the weight count grows ~50x.
func TestMapBundleLoadAllocsWeightIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	allocsFor := func(hidden int) float64 {
		m := nn.NewGRUModel(nn.ModelSpec{
			InputDim: 8, Hidden: hidden, NumLayers: 2, OutputDim: 6, Seed: 7,
		})
		res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
		eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.rtmb")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveBundle(f, res.Scheme); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return testing.AllocsPerRun(5, func() {
			mb, err := MapBundle(path, device.MobileGPU())
			if err != nil {
				t.Fatal(err)
			}
			mb.Close()
		})
	}
	small, large := allocsFor(32), allocsFor(224)
	// 32→224 hidden is ~49x the weights; a per-weight decode would scale
	// the allocation count with it. Allow fixed slack for map growth.
	if large > small+96 {
		t.Fatalf("MapBundle allocations scale with weights: %v allocs at hidden=32, %v at hidden=224",
			small, large)
	}
}

// TestMappedStreamStepIntoZeroAlloc: the first inference after a mapped
// load runs the same zero-allocation steady state as a compiled engine —
// no lazy decode hiding in the hot path.
func TestMappedStreamStepIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	eng, _ := v5TestEngine(t, 105, DeployConfig{})
	path := writeBundleFile(t, eng)
	mb, err := MapBundle(path, device.MobileGPU())
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	s := mb.Engine().NewStream()
	frame := testFrames(106, 1, mb.Engine().InputDim())[0]
	dst := make([]float32, mb.Engine().OutputDim())
	s.StepInto(dst, frame) // warm the softmax scratch
	if allocs := testing.AllocsPerRun(100, func() {
		s.StepInto(dst, frame)
	}); allocs != 0 {
		t.Fatalf("mapped StepInto allocates %v times per frame, want 0", allocs)
	}
}

// FuzzMapBundle: arbitrary bytes through the full file-based loader must
// produce an error or a working bundle — never a panic or an out-of-range
// slice. Every section access length-checks before slicing, and no input
// but a v5 image an engine runs as written is served.
func FuzzMapBundle(f *testing.F) {
	m := testModel(107)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundleVersion(&buf, testScheme(), 5); err != nil {
		f.Fatal(err)
	}
	image := buf.Bytes() // compact: biases and programs only
	f.Add(image)
	// Its first program no longer executable: refused.
	f.Add(v5PatchMeta(f, image, func(m *v5Meta) { m.Programs[0].Name = "stale" }))
	f.Add(image[:len(image)/2])
	f.Add(v5Mutate(image, false, func(b []byte) { b[13] ^= 0xff }))
	f.Add(v5Mutate(image, true, func(b []byte) {
		binary.LittleEndian.PutUint64(b[12+4:], ^uint64(0))
	}))
	f.Add([]byte("RTMB"))
	q8, err := os.ReadFile(filepath.Join("testdata", "parent_v5_q8.rtmb"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v5PatchScale(f, q8, float32(math.NaN())))
	// Files no engine runs as written — a version-4 header, a plan priced
	// per fused [Wx|Wh] kernel with the fused bit set — are refused.
	fusedPlan, _ := fusedLowering(f, m, eng, testScheme())
	for _, legacy := range [][]byte{withVersion(image, 4), fusedImage(f, image, fusedPlan)} {
		_, err := mapImage(f, legacy, nil)
		refused(f, "legacy seed", err)
		f.Add(legacy)
	}
	f.Add(q8)
	// A file written while programs were still cut into thread lanes.
	laned, err := os.ReadFile(filepath.Join("testdata", "lanes_v5.rtmb"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(laned)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rtmb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		mb, err := MapBundle(path, nil)
		if err == nil {
			mb.Close()
			if v := binary.LittleEndian.Uint32(data[4:]); v != bundleVersion5 {
				t.Fatalf("version-%d image served", v)
			}
		}
	})
}

// programNames lists the bundle engine's program names, sorted.
func programNames(b *MappedBundle) []string {
	names := make([]string, 0, len(b.img.eng.progs))
	for _, p := range b.img.eng.progs {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}
