package rtmobile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Loader compatibility: both readers take exactly the v5 files an engine
// runs as written. A version 1–4 file, a v5 file whose plan prices fused
// [Wx|Wh] kernels (the retired fused deployment), and a v5 file whose
// programs no engine executes (one [Wx|Wh] program per layer, or a row
// rounded once per column block) are refused by MapBundle and ReadBundle
// alike, with the reason and the command that upgrades the file. The table
// builds one image of each kind. A v5 file whose programs are stored in one
// lane per modelled thread is taken as written (TestLoadersReadLanedBundles).

// fixtureSpec and fixtureScheme are the deployment testdata/parent_*.rtmb
// were written from (testdata/README.md).
var (
	fixtureSpec   = nn.ModelSpec{InputDim: 8, Hidden: 16, NumLayers: 2, OutputDim: 6, Seed: 48}
	fixtureScheme = prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 4}
)

// fixtureModel rebuilds the model the fixtures were compiled from.
func fixtureModel() *nn.Model { return prunedModel(fixtureSpec, fixtureScheme) }

func prunedModel(spec nn.ModelSpec, scheme prune.BSP) *nn.Model {
	m := nn.NewModel(spec)
	Prune(m, nil, PruneConfig{ColRate: scheme.ColRate, RowRate: scheme.RowRate,
		RowGroups: scheme.NumRowGroups, ColBlocks: scheme.NumColBlocks})
	return m
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	image, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// perBlockProgram is a BSP matrix as bundle writers before the dense-order
// lowering stored it: one gather segment and one run of row dots per column
// block, so a row is listed (and rounded) once per block.
func perBlockProgram(tb testing.TB, name string, w *nn.Param, scheme prune.BSP) *compiler.PackedProgram {
	tb.Helper()
	s := &compiler.PackedSections{
		Name: name, Rows: w.W.Rows, Cols: w.W.Cols,
		Format: compiler.FormatBSPC, ValueBits: 32,
	}
	for _, blk := range sparse.NewBSPC(w.W, scheme).Blocks {
		const gather = 0 // the gather segment kind
		s.SegWords = append(s.SegWords, gather, int32(len(blk.ColIdx)), int32(len(s.ColIdx)),
			int32(len(s.Vals)), int32(len(s.RowIdx)), int32(len(blk.RowIdx)))
		s.ColIdx = append(s.ColIdx, blk.ColIdx...)
		s.Vals = append(s.Vals, blk.Vals...)
		s.RowIdx = append(s.RowIdx, blk.RowIdx...)
	}
	s.LaneSegCounts = []int32{int32(len(s.SegWords) / 6)}
	s.LaneRowCounts = []int32{int32(len(s.RowIdx))}
	pp, err := compiler.NewPackedFromSections(s)
	if err != nil {
		tb.Fatal(err)
	}
	return pp
}

// fusedLowering lowers model the way the retired fused deployment did: one
// [Wx|Wh] matrix per GRU layer, then the classifier, under eng's options.
func fusedLowering(tb testing.TB, model *nn.Model, eng *Engine, scheme prune.BSP) (*compiler.Plan, []*compiler.PackedProgram) {
	tb.Helper()
	var srcs []compiler.MatrixSource
	for _, l := range model.Layers {
		if g, ok := l.(*nn.GRU); ok {
			wx, wh := g.Wx.W, g.Wh.W
			w := tensor.NewMatrix(wx.Rows, wx.Cols+wh.Cols)
			for r := 0; r < w.Rows; r++ {
				copy(w.Data[r*w.Cols:], wx.Data[r*wx.Cols:(r+1)*wx.Cols])
				copy(w.Data[r*w.Cols+wx.Cols:], wh.Data[r*wh.Cols:(r+1)*wh.Cols])
			}
			srcs = append(srcs, compiler.MatrixSource{Name: g.Wx.Name + "h", W: w, Scheme: &scheme})
		}
	}
	mats := model.WeightMatrices()
	out := mats[len(mats)-1]
	srcs = append(srcs, compiler.MatrixSource{Name: out.Name, W: out.W, Scheme: &scheme})
	plan, progs, err := compiler.CompilePlan(model.Spec.String(), srcs, eng.plan.Options,
		eng.target.Threads(), TimestepsPerFrame, elementwiseOps(model))
	if err != nil {
		tb.Fatal(err)
	}
	return plan, progs
}

// fusedImage is image with its plan replaced by plan and the fused bit
// fused deployments wrote beside it.
func fusedImage(tb testing.TB, image []byte, plan *compiler.Plan) []byte {
	tb.Helper()
	meta := v5MetaOf(tb, image)
	meta.Plan = plan
	payload, err := json.Marshal(struct {
		v5Meta
		Fused bool `json:"fused"`
	}{meta, true})
	if err != nil {
		tb.Fatal(err)
	}
	return v5SetMeta(image, payload)
}

// v5MetaOf decodes a v5 image's metadata.
func v5MetaOf(tb testing.TB, image []byte) v5Meta {
	tb.Helper()
	entry := image[12 : 12+24] // section 1, the metadata, is always first
	off, length := binary.LittleEndian.Uint64(entry[4:]), binary.LittleEndian.Uint64(entry[12:])
	var meta v5Meta
	if err := json.Unmarshal(image[off:off+length], &meta); err != nil {
		tb.Fatal(err)
	}
	return meta
}

// v5PatchMeta returns a copy of a v5 image whose metadata is patch applied
// to the image's.
func v5PatchMeta(tb testing.TB, image []byte, patch func(*v5Meta)) []byte {
	tb.Helper()
	meta := v5MetaOf(tb, image)
	patch(&meta)
	payload, err := json.Marshal(&meta)
	if err != nil {
		tb.Fatal(err)
	}
	return v5SetMeta(image, payload)
}

// v5SetMeta returns a copy of a v5 image whose metadata is payload: it is
// appended as a fresh aligned payload and the directory's first entry
// repointed to it.
func v5SetMeta(image, payload []byte) []byte {
	le := binary.LittleEndian
	at := int(align64(uint64(len(image))))
	grown := append(append([]byte(nil), image...), make([]byte, at-len(image)+len(payload))...)
	return v5Mutate(grown, true, func(b []byte) {
		copy(b[at:], payload)
		le.PutUint64(b[12+4:], uint64(at))
		le.PutUint64(b[12+12:], uint64(len(payload)))
		le.PutUint32(b[12+20:], crc32.ChecksumIEEE(payload))
	})
}

// withVersion is image with its version word set to v.
func withVersion(image []byte, v uint32) []byte {
	out := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(out[4:], v)
	return out
}

func TestLoadersRefuseBundlesTheyCannotRun(t *testing.T) {
	model := fixtureModel()
	eng, err := Compile(model, fixtureScheme, DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveBundle(&buf, fixtureScheme); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	fusedPlan, fusedProgs := fusedLowering(t, model, eng, fixtureScheme)
	// save writes eng's plan over progs, beside the dense sections every
	// writer of the time emitted for the params they cover.
	save := func(progs []*compiler.PackedProgram) []byte {
		var buf bytes.Buffer
		if err := (&Engine{shell: eng.denseModel(), plan: eng.plan, progs: progs}).SaveBundle(&buf, fixtureScheme); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	type refusal struct {
		name, reason string
		image        func(t *testing.T) []byte
	}
	var cases []refusal
	for v := uint32(1); v <= 4; v++ {
		cases = append(cases, refusal{fmt.Sprintf("v%d", v), fmt.Sprintf("is format version %d", v),
			func(t *testing.T) []byte { return withVersion(image, v) }})
	}
	cases = append(cases,
		// A fused deployment wrote the per-matrix programs it executed,
		// beside a plan priced per [Wx|Wh] kernel.
		refusal{"v5-fused", "plan does not price its programs", func(t *testing.T) []byte {
			return fusedImage(t, image, fusedPlan)
		}},
		// A fused v5 file from before that: one [Wx|Wh] program per layer.
		refusal{"v5-fused-programs", "stores no programs an engine executes", func(t *testing.T) []byte {
			return fusedImage(t, save(fusedProgs), fusedPlan)
		}},
		// A v5 file from before the dense-order lowering: a row appears in
		// one segment per column block.
		refusal{"v5-per-block-programs", "stores no programs an engine executes", func(t *testing.T) []byte {
			var progs []*compiler.PackedProgram
			for _, p := range eng.denseModel().WeightMatrices() {
				pp := perBlockProgram(t, p.Name, p, fixtureScheme)
				if pp.Sections().RowsOnce() {
					t.Fatalf("%s: the per-block lowering lists every row once; the case tests nothing", p.Name)
				}
				progs = append(progs, pp)
			}
			return save(progs)
		}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			path := filepath.Join(t.TempDir(), "old.rtmb")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := MapBundle(path, nil)
			refused(t, "MapBundle", err)
			if !strings.Contains(err.Error(), tc.reason) || !strings.Contains(err.Error(), "deploy -in "+path+" at commit "+legacyReaderCommit) {
				t.Fatalf("MapBundle error %q, want the reason %q and the command naming %s", err, tc.reason, path)
			}
			_, _, _, err = ReadBundle(bytes.NewReader(image), nil)
			refused(t, "ReadBundle", err)
			if !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("ReadBundle error %q, want the reason %q", err, tc.reason)
			}
		})
	}
}

// sameInference fails unless two engines score utts to the same bits.
func sameInference(t *testing.T, label string, got, want *Engine, utts [][][]float32) {
	t.Helper()
	for i, u := range utts {
		g, w := got.Infer(u), want.Infer(u)
		for f := range w {
			for j := range w[f] {
				if math.Float32bits(g[f][j]) != math.Float32bits(w[f][j]) {
					t.Fatalf("%s: utterance %d frame %d class %d: %v, want %v", label, i, f, j, g[f][j], w[f][j])
				}
			}
		}
	}
}

// TestLoadersReadLanedBundles: files written while the lowering cut every
// program into the modelled target's thread lanes — testdata/lanes_v5*.rtmb,
// the fixtures as they were before the one-lane lowering — are neither
// refused nor re-lowered. MapBundle serves each bit-equal to its one-lane
// fixture, and ReadBundle plus Compile re-deploys it to exactly the
// fixture's bytes.
func TestLoadersReadLanedBundles(t *testing.T) {
	utts := diffUtterances(fixtureSpec.InputDim)
	for _, q := range []string{"", "_q8", "_q16"} {
		laned, fixture := readFixture(t, "lanes_v5"+q+".rtmb"), readFixture(t, "parent_v5"+q+".rtmb")
		got, want := mustMap(t, laned, nil), mustMap(t, fixture, nil)
		for i, p := range got.progs {
			if len(p.Segs) <= len(want.progs[i].Segs) {
				t.Fatalf("lanes_v5%s %s: %d segments, the fixture %d: the file holds no lanes to rebase",
					q, p.Name, len(p.Segs), len(want.progs[i].Segs))
			}
		}
		sameInference(t, "MapBundle lanes_v5"+q, got, want, utts)
		again, _ := relower(t, laned, nil)
		var buf bytes.Buffer
		if err := again.SaveBundle(&buf, fixtureScheme); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fixture) {
			t.Fatalf("re-deploying lanes_v5%s does not write parent_v5%s.rtmb's bytes", q, q)
		}
	}
}

// TestMapBundleRefusesMovedChunkCut: the plan prices the one segment list
// cut into the target's thread chunks, so a plan that moves one row's MACs
// from a chunk into its neighbour — the same total, another cut — no longer
// prices the stored programs, and both readers refuse it.
func TestMapBundleRefusesMovedChunkCut(t *testing.T) {
	image := readFixture(t, "parent_v5.rtmb")
	row := mustMap(t, image, nil).progs[0].Segs[0] // a gather segment: each row's MACs are its width
	moved := v5PatchMeta(t, image, func(m *v5Meta) {
		macs := m.Plan.Matrices[0].ThreadMACs
		for c := 0; c+1 < len(macs); c++ {
			if macs[c+1] >= int(row.NC) {
				macs[c] += int(row.NC)
				macs[c+1] -= int(row.NC)
				return
			}
		}
		t.Fatalf("no chunk after the first holds a row of %d MACs: %v", row.NC, macs)
	})
	path := filepath.Join(t.TempDir(), "moved.rtmb")
	if err := os.WriteFile(path, moved, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := MapBundle(path, nil)
	refused(t, "MapBundle", err)
	if !strings.Contains(err.Error(), "plan does not price its programs") {
		t.Fatalf("MapBundle error %q, want the plan refused", err)
	}
	_, _, _, err = ReadBundle(bytes.NewReader(moved), nil)
	if err == nil || !strings.Contains(err.Error(), "plan does not price its programs") {
		t.Fatalf("ReadBundle error %v, want the plan refused", err)
	}
}
