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
// from the weights once at load. The table loads one bundle of each such
// kind and checks the exact tier bit for bit against nn.Forward.

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

// withPrograms returns a copy of eng that would serialize the given
// programs in place of its own.
func withPrograms(eng *Engine, progs []namedProgram) *Engine {
	return &Engine{
		model: eng.model, plan: eng.plan, target: eng.target, pool: eng.pool,
		fp16: eng.fp16, fused: eng.fused, tuned: eng.tuned,
		quant: eng.quant, precision: eng.precision,
		progs: progs,
	}
}

func TestLoadersLowerBundlesWithoutExecutablePrograms(t *testing.T) {
	spec := nn.ModelSpec{InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: 48}
	scheme := prune.BSP{ColRate: 2, RowRate: 1, NumRowGroups: 2, NumColBlocks: 4}
	compile := func(t *testing.T, fuse bool) (*Engine, *nn.Model) {
		t.Helper()
		m := nn.NewModel(spec)
		Prune(m, nil, PruneConfig{ColRate: scheme.ColRate, RowRate: scheme.RowRate,
			RowGroups: scheme.NumRowGroups, ColBlocks: scheme.NumColBlocks})
		eng, err := Compile(m, scheme, DeployConfig{Target: device.MobileCPU(), FuseKernels: fuse})
		if err != nil {
			t.Fatal(err)
		}
		return eng, m
	}
	v4 := func(t *testing.T, eng *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.SaveBundleVersion(&buf, scheme, 4); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v5 := func(t *testing.T, eng *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.SaveBundleVersion(&buf, scheme, 5); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := []struct {
		name  string
		fuse  bool
		image func(t *testing.T, eng *Engine) []byte
	}{
		{"v1", false, func(t *testing.T, eng *Engine) []byte { return asV1(v4(t, eng)) }},
		{"v2", false, func(t *testing.T, eng *Engine) []byte { return asV2(v4(t, eng)) }},
		{"v3", false, func(t *testing.T, eng *Engine) []byte { return asV3(v4(t, eng)) }},
		{"v4", false, v4},
		{"v4-fused", true, v4},
		// A fused deployment writes the per-matrix programs it executes.
		{"v5-fused", true, v5},
		// A fused v5 file from before: one [Wx|Wh] program per layer.
		{"v5-fused-programs", true, func(t *testing.T, eng *Engine) []byte {
			var progs []namedProgram
			srcs := compiler.FuseSources(ModelSources(eng.model, scheme, compiler.FormatBSPC))
			for _, src := range srcs {
				prog, err := compiler.CompileProgram(src, eng.plan.Options, eng.target.Threads())
				if err != nil {
					t.Fatal(err)
				}
				pp, err := compiler.Pack(prog, 0)
				if err != nil {
					t.Fatal(err)
				}
				progs = append(progs, namedProgram{src.Name, pp})
			}
			return v5(t, withPrograms(eng, progs))
		}},
		// A v5 file from before the dense-order lowering: a row appears in
		// one segment per column block.
		{"v5-per-block-programs", false, func(t *testing.T, eng *Engine) []byte {
			var progs []namedProgram
			for _, p := range eng.model.WeightMatrices() {
				pp, err := compiler.Pack(perBlockProgram(p.Name, p, scheme), 0)
				if err != nil {
					t.Fatal(err)
				}
				if pp.Sections().RowsOnce() {
					t.Fatalf("%s: the per-block lowering lists every row once; the case tests nothing", p.Name)
				}
				progs = append(progs, namedProgram{p.Name, pp})
			}
			return v5(t, withPrograms(eng, progs))
		}},
	}
	frames := testFrames(49, 9, spec.InputDim)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, model := compile(t, tc.fuse)
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
					if !p.run.Sections().RowsOnce() {
						t.Fatalf("%s: program %s rounds a row more than once", name, p.name)
					}
				}
			}
		})
	}
}
