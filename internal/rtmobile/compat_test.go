package rtmobile

import (
	"bytes"
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
// from the weights once at load — and a bundle that carries the retired
// fused-plan bit loads as the per-matrix deployment it always ran. The
// table loads one bundle of each such kind and checks the exact tier bit
// for bit against nn.Forward.

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

func TestLoadersLowerBundlesWithoutExecutablePrograms(t *testing.T) {
	spec := nn.ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: 48}
	scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 4}
	save := func(t *testing.T, eng *Engine, version int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.SaveBundleVersion(&buf, scheme, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// fixture cases load a file written while the fused plan existed, with the
	// fused bit set; the others serialize a fresh Compile.
	fixture := func(name string, as func([]byte) []byte) func(*testing.T, *Engine) []byte {
		return func(t *testing.T, _ *Engine) []byte { return as(readFixture(t, name)) }
	}
	asIs := func(image []byte) []byte { return image }

	cases := []struct {
		name  string
		fused bool
		image func(t *testing.T, eng *Engine) []byte
	}{
		{"v1", false, func(t *testing.T, eng *Engine) []byte { return asV1(save(t, eng, 4)) }},
		{"v2", false, func(t *testing.T, eng *Engine) []byte { return asV2(save(t, eng, 4)) }},
		{"v3", false, func(t *testing.T, eng *Engine) []byte { return asV3(save(t, eng, 4)) }},
		{"v4", false, func(t *testing.T, eng *Engine) []byte { return save(t, eng, 4) }},
		{"v1-fused", true, fixture("parent_v4_fused.rtmb", asV1)},
		{"v2-fused", true, fixture("parent_v4_fused.rtmb", asV2)},
		{"v3-fused", true, fixture("parent_v4_fused.rtmb", asV3)},
		{"v4-fused", true, fixture("parent_v4_fused.rtmb", asIs)},
		// A fused deployment wrote the per-matrix programs it executed, beside
		// a plan priced per [Wx|Wh] kernel.
		{"v5-fused", true, fixture("parent_v5_fused.rtmb", asIs)},
		// A fused v5 file from before that: one [Wx|Wh] program per layer.
		{"v5-fused-programs", true, fixture("parent_v5_fused_programs.rtmb", asIs)},
		// A v5 file from before the dense-order lowering: a row appears in
		// one segment per column block.
		{"v5-per-block-programs", false, func(t *testing.T, eng *Engine) []byte {
			var progs []*compiler.PackedProgram
			for _, p := range eng.model.WeightMatrices() {
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
				model: eng.model, plan: eng.plan, target: eng.target, pool: eng.pool,
				fp16: eng.fp16, tuned: eng.tuned, quant: eng.quant, precision: eng.precision,
				progs: progs,
			}, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := prunedModel(spec, scheme)
			if tc.fused {
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
		})
	}
}
