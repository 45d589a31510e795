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
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/sparse"
)

// Loader compatibility: a bundle that carries no executable per-matrix
// program still ends on the one serving path — its programs are lowered
// from the weights once at load — a bundle that carries the retired
// fused-plan bit loads as the per-matrix deployment it always ran, and a
// bundle whose tile records an unroll factor (which once picked the host's
// dot kernels) or a measured plan cache (written by the deleted host-timing
// tuner) loads with both recorded and neither selecting anything. The table
// loads one bundle of each such kind and checks the exact tier bit for bit
// against nn.Forward.

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

// perBlockProgram lowers a BSP matrix the way bundle writers before the
// dense-order lowering did: one gather and one run of row dots per column
// block, so a row is listed (and rounded) once per block.
func perBlockProgram(name string, w *nn.Param, scheme prune.BSP) *compiler.Program {
	prog := &compiler.Program{
		Name: name, Rows: w.W.Rows, Cols: w.W.Cols,
		Format: compiler.FormatBSPC, ValueBits: 32,
		Threads: make([][]compiler.Instr, 1),
	}
	for _, blk := range sparse.NewBSPC(w.W, scheme).Blocks {
		nc := len(blk.ColIdx)
		prog.Threads[0] = append(prog.Threads[0], compiler.Instr{Op: compiler.OpGather, Cols: blk.ColIdx})
		for ri, r := range blk.RowIdx {
			prog.Threads[0] = append(prog.Threads[0], compiler.Instr{
				Op: compiler.OpDotGathered, Row: int(r), Vals: blk.Vals[ri*nc : (ri+1)*nc],
			})
		}
	}
	return prog
}

// retiledRecord is the plan cache the retile helpers write.
var retiledRecord = TuneRecord{Mode: TuneMeasured, Cost: 1234}

// v4Retile rewrites a v4 image's unroll word and plan cache.
func v4Retile(unroll int) func([]byte) []byte {
	return func(image []byte) []byte {
		out := append([]byte(nil), image...)
		le := binary.LittleEndian
		le.PutUint32(out[bundleOffUnroll:], uint32(unroll))
		out[bundleOffPlanCache] = byte(retiledRecord.Mode)
		le.PutUint64(out[bundleOffPlanCache+5:], math.Float64bits(retiledRecord.Cost))
		return out
	}
}

// v5Retile rewrites a v5 image's recorded unroll — the plan tile's and every
// program's — and its plan cache.
func v5Retile(t *testing.T, unroll int) func([]byte) []byte {
	return func(image []byte) []byte {
		return v5PatchMeta(t, image, func(meta *v5Meta) {
			meta.Plan.Options.Tile.Unroll = unroll
			for i := range meta.Programs {
				meta.Programs[i].Unroll = unroll
			}
			meta.TuneMode, meta.TuneCost = uint8(retiledRecord.Mode), retiledRecord.Cost
		})
	}
}

// v5PatchMeta returns a copy of a v5 image whose metadata is patch applied
// to the image's: the new metadata is appended as a fresh aligned payload
// and the directory's first entry repointed to it.
func v5PatchMeta(tb testing.TB, image []byte, patch func(*v5Meta)) []byte {
	tb.Helper()
	le := binary.LittleEndian
	entry := image[12 : 12+24] // section 1, the metadata, is always first
	off, length := le.Uint64(entry[4:]), le.Uint64(entry[12:])
	var meta v5Meta
	if err := json.Unmarshal(image[off:off+length], &meta); err != nil {
		tb.Fatal(err)
	}
	patch(&meta)
	payload, err := json.Marshal(&meta)
	if err != nil {
		tb.Fatal(err)
	}
	at := int(align64(uint64(len(image))))
	grown := append(append([]byte(nil), image...), make([]byte, at-len(image)+len(payload))...)
	return v5Mutate(grown, true, func(b []byte) {
		copy(b[at:], payload)
		le.PutUint64(b[12+4:], uint64(at))
		le.PutUint64(b[12+12:], uint64(len(payload)))
		le.PutUint32(b[12+20:], crc32.ChecksumIEEE(payload))
	})
}

func TestLoadersLowerBundlesWithoutExecutablePrograms(t *testing.T) {
	spec := nn.ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: 48}
	scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 4}
	save := func(t *testing.T, eng *Engine, version int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.saveVersion(&buf, scheme, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// fixture cases load a file an earlier commit wrote from fixtureModel
	// (the *-fused ones while the fused plan existed, with the fused bit set);
	// the others serialize a fresh Compile.
	fixture := func(name string, as func([]byte) []byte) func(*testing.T, *Engine) []byte {
		return func(t *testing.T, _ *Engine) []byte { return as(readFixture(t, name)) }
	}
	asIs := func(image []byte) []byte { return image }

	type loaderCase struct {
		name    string
		fixture bool
		image   func(t *testing.T, eng *Engine) []byte
		// unroll, when non-zero, is the factor a retiled copy of the fixture
		// unpatched records; its plan cache is retiledRecord.
		unroll    int
		unpatched string
	}
	cases := []loaderCase{
		{"v1", false, func(t *testing.T, eng *Engine) []byte { return asV1(save(t, eng, 4)) }, 0, ""},
		{"v2", false, func(t *testing.T, eng *Engine) []byte { return asV2(save(t, eng, 4)) }, 0, ""},
		{"v3", false, func(t *testing.T, eng *Engine) []byte { return asV3(save(t, eng, 4)) }, 0, ""},
		{"v4", false, func(t *testing.T, eng *Engine) []byte { return save(t, eng, 4) }, 0, ""},
		{"v1-fused", true, fixture("parent_v4_fused.rtmb", asV1), 0, ""},
		{"v2-fused", true, fixture("parent_v4_fused.rtmb", asV2), 0, ""},
		{"v3-fused", true, fixture("parent_v4_fused.rtmb", asV3), 0, ""},
		{"v4-fused", true, fixture("parent_v4_fused.rtmb", asIs), 0, ""},
		// A fused deployment wrote the per-matrix programs it executed, beside
		// a plan priced per [Wx|Wh] kernel.
		{"v5-fused", true, fixture("parent_v5_fused.rtmb", asIs), 0, ""},
		// A fused v5 file from before that: one [Wx|Wh] program per layer.
		{"v5-fused-programs", true, fixture("parent_v5_fused_programs.rtmb", asIs), 0, ""},
		// A v5 file from before the dense-order lowering: a row appears in
		// one segment per column block.
		{"v5-per-block-programs", false, func(t *testing.T, eng *Engine) []byte {
			// The writer stores whatever params the engine holds: a dense
			// model in place of the shell gives the file the dense
			// sections every writer of that time emitted.
			dense := eng.denseModel()
			var progs []*compiler.PackedProgram
			for _, p := range dense.WeightMatrices() {
				pp, err := compiler.Pack(perBlockProgram(p.Name, p, scheme), 0)
				if err != nil {
					t.Fatal(err)
				}
				if pp.Sections().RowsOnce() {
					t.Fatalf("%s: the per-block lowering lists every row once; the case tests nothing", p.Name)
				}
				progs = append(progs, pp)
			}
			return save(t, &Engine{
				shell: dense, plan: eng.plan, target: eng.target, pool: eng.pool,
				fp16: eng.fp16, tuned: eng.tuned, quant: eng.quant, precision: eng.precision,
				progs: progs,
			}, 5)
		}, 0, ""},
	}
	// The unroll word once chose the host's dot kernels (2 and 8 named real
	// families, 255 was clamped to one) and TuneMeasured came from a search
	// that no longer exists: both still load, are reported back, and change
	// no byte of output.
	for _, unroll := range []int{2, 8, 255} {
		cases = append(cases,
			loaderCase{fmt.Sprintf("v4-unroll%d", unroll), true,
				fixture("parent_v4.rtmb", v4Retile(unroll)), unroll, "parent_v4.rtmb"},
			loaderCase{fmt.Sprintf("v5-unroll%d", unroll), true,
				fixture("parent_v5.rtmb", v5Retile(t, unroll)), unroll, "parent_v5.rtmb"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := prunedModel(spec, scheme)
			if tc.fixture {
				model = fixtureModel()
			}
			eng, err := Compile(model, scheme, DeployConfig{Target: device.MobileCPU()})
			if err != nil {
				t.Fatal(err)
			}
			frames := testFrames(49, 9, model.Spec.InputDim)
			want := nn.Posteriors(model.Forward(frames))
			image := tc.image(t, eng)

			loaded, _, err := LoadBundle(bytes.NewReader(image), device.MobileCPU())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "model.rtmb")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			mb, err := MapBundle(path, device.MobileCPU())
			if err != nil {
				t.Fatal(err)
			}
			defer mb.Close()

			for name, e := range map[string]*Engine{"Compile": eng, "LoadBundle": loaded, "MapBundle": mb.Engine()} {
				if !postEqual(e.Infer(frames), want) {
					t.Fatalf("%s: Infer differs from nn.Posteriors(model.Forward)", name)
				}
				if got, want := len(e.progs), len(model.WeightMatrices()); got != want {
					t.Fatalf("%s: %d programs, want one per weight matrix (%d)", name, got, want)
				}
				for _, p := range e.progs {
					if !p.Sections().RowsOnce() {
						t.Fatalf("%s: program %s rounds a row more than once", name, p.Name)
					}
				}
				// The plan prices what runs: one kernel per program, the
				// same MACs a fresh Compile prices.
				if len(e.plan.Matrices) != len(e.progs) || e.stepMACs != eng.stepMACs {
					t.Fatalf("%s: plan prices %d kernels / %d MACs per step, want %d / %d",
						name, len(e.plan.Matrices), e.stepMACs, len(e.progs), eng.stepMACs)
				}
			}
			if tc.unroll == 0 {
				return
			}
			base, _, err := LoadBundle(bytes.NewReader(readFixture(t, tc.unpatched)), device.MobileCPU())
			if err != nil {
				t.Fatal(err)
			}
			for name, e := range map[string]*Engine{"LoadBundle": loaded, "MapBundle": mb.Engine()} {
				if e.Tuned() != retiledRecord {
					t.Fatalf("%s: plan cache %+v, want %+v", name, e.Tuned(), retiledRecord)
				}
				if got := e.plan.Options.Tile.Unroll; got != tc.unroll {
					t.Fatalf("%s: recorded unroll %d, want %d", name, got, tc.unroll)
				}
				if !postEqual(e.Infer(frames), base.Infer(frames)) {
					t.Fatalf("%s: Infer differs from the unpatched bundle's", name)
				}
			}
		})
	}
}
