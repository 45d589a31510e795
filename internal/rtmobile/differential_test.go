package rtmobile

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// The differential suite: every way of obtaining an engine × every entry
// point × BSP rates × worker counts × kernel tiers, each checked against the
// training-side reference nn.Posteriors(model.Forward(..)) under the tier's
// contract. The exact tier must be bit-equal — the dense-order contract of
// the compiled programs — whatever the storage width, since Compile rounds
// a quantized deployment's model to the dequantized weights its programs
// run. The fast
// tier must satisfy tensor.FastActClose with the engine-level absolute arm.
// Whatever the tier, an engine mapped
// from a bundle, or read back from one and lowered again, must reproduce
// the compiled engine bit for bit: it runs the same programs.

// diffTier is one kernel tier and its contract against the reference.
type diffTier struct {
	name      string
	quant     int
	precision compiler.Precision
	// close reports whether got is acceptable for the reference value want.
	close func(got, want float32) bool
}

var diffTiers = []diffTier{
	{"exact", 0, compiler.PrecisionExact, func(got, want float32) bool { return got == want }},
	// Posteriors live in [0, 1]; the fast tier reorders float rounding in
	// each projection and approximates the gates, and the recurrence
	// compounds both: the engine-level absolute arm is 1e-3.
	{"fast", 0, compiler.PrecisionFast, func(got, want float32) bool {
		return tensor.FastActClose(got, want, 1e-3)
	}},
	// A quantized program holds the values of the model's dequantized
	// matrices and runs the float32 kernels: exact, like the float tier.
	{"q8", 8, compiler.PrecisionExact, func(got, want float32) bool { return got == want }},
	{"q16", 16, compiler.PrecisionExact, func(got, want float32) bool { return got == want }},
}

var diffRates = []struct {
	name     string
	col, row float64
}{
	{"1x", 1, 1},
	{"10x", 10, 1},
	{"245x", 20, 12.25},
}

// diffUtterances is a ragged set, one utterance empty.
func diffUtterances(dim int) [][][]float32 {
	var utts [][][]float32
	for i, n := range []int{7, 3, 0, 5, 1, 6} {
		utts = append(utts, testFrames(uint64(300+i), n, dim))
	}
	return utts
}

// diffEntries are the engine's entry points, each scoring every utterance.
var diffEntries = []struct {
	name string
	run  func(e *Engine, utts [][][]float32) [][][]float32
}{
	{"StepInto", func(e *Engine, utts [][][]float32) [][][]float32 {
		s := e.NewStream()
		out := make([][][]float32, len(utts))
		for i, u := range utts {
			s.Reset()
			for _, f := range u {
				dst := make([]float32, e.OutputDim())
				s.StepInto(dst, f)
				out[i] = append(out[i], dst)
			}
		}
		return out
	}},
	{"Infer", func(e *Engine, utts [][][]float32) [][][]float32 {
		out := make([][][]float32, len(utts))
		for i, u := range utts {
			out[i] = e.Infer(u)
		}
		return out
	}},
	{"InferBatchInto", func(e *Engine, utts [][][]float32) [][][]float32 {
		return e.InferBatch(utts) // allocates dst, then InferBatchInto
	}},
	{"BatchLease", diffLease},
}

// diffLease drives three utterance slots the way the scheduler does: slots
// are seated from a queue with ResetLane while their neighbours keep
// streaming, retired when their utterance ends, and sit one step retired
// before the next utterance takes the slot. Every third step the whole
// panel migrates mid-flight — to a lease of the other width (3 ↔ 8), each
// slot to a different lane — as the scheduler's grow and shrink do.
func diffLease(e *Engine, utts [][][]float32) [][][]float32 {
	const slots = 3
	lease := e.AcquireBatch(slots)
	defer func() { lease.Release() }()
	out := make([][][]float32, len(utts))
	cur, pos, idle, lane := [slots]int{}, [slots]int{}, [slots]int{}, [slots]int{}
	for s := range cur {
		cur[s], lane[s] = -1, s
		lease.Retire(s)
	}
	next, done := 0, 0
	for step := 1; done < len(utts); step++ {
		if step%3 == 0 {
			w := slots + 8 - lease.Width()
			moved := e.AcquireBatch(w)
			for l := 0; l < w; l++ {
				moved.Retire(l)
			}
			for s := range lane {
				nl := (2*lane[s] + 1) % w // distinct lanes for distinct slots at 3 and 8
				lease.CopyLaneTo(moved, nl, lane[s])
				lane[s] = nl
			}
			lease.Release()
			lease = moved
		}
		in, post, width := lease.In(), lease.Out(), lease.Width()
		for s := range cur {
			if cur[s] >= 0 {
				continue
			}
			if idle[s]++; idle[s] < 2 || next == len(utts) {
				continue
			}
			if len(utts[next]) == 0 {
				next, done = next+1, done+1
				continue
			}
			cur[s], pos[s], next = next, 0, next+1
			lease.ResetLane(lane[s])
		}
		for s, u := range cur {
			if u >= 0 {
				for i, v := range utts[u][pos[s]] {
					in[i*width+lane[s]] = v
				}
			}
		}
		lease.Step()
		for s, u := range cur {
			if u < 0 {
				continue
			}
			row := make([]float32, e.OutputDim())
			for i := range row {
				row[i] = post[i*width+lane[s]]
			}
			out[u] = append(out[u], row)
			if pos[s]++; pos[s] == len(utts[u]) {
				cur[s], idle[s], done = -1, 0, done+1
				lease.Retire(lane[s])
			}
		}
	}
	return out
}

// diffLoaders are the ways of obtaining an engine from a compiled one.
var diffLoaders = []struct {
	name string
	load func(t *testing.T, eng *Engine, scheme prune.BSP) *Engine
}{
	{"Compile", func(t *testing.T, eng *Engine, _ prune.BSP) *Engine { return eng }},
	{"MapBundleV5", func(t *testing.T, eng *Engine, scheme prune.BSP) *Engine {
		mb, err := MapBundle(writeBundleFileScheme(t, eng, scheme), device.MobileCPU())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mb.Close() })
		return mb.Engine()
	}},
	// The bundle read back and lowered again (`rtmobile deploy -in`).
	{"Redeploy", func(t *testing.T, eng *Engine, scheme prune.BSP) *Engine {
		var buf bytes.Buffer
		if err := eng.SaveBundle(&buf, scheme); err != nil {
			t.Fatal(err)
		}
		loaded, _ := relower(t, buf.Bytes(), nil)
		return loaded
	}},
}

// diffRun scores utts through every entry point at 1, 2 and 8 workers,
// checks each result against ref under the tier's contract, and returns the
// results keyed by entry point and worker count (hence by panel width, which
// the fast tier's lane grouping follows).
func diffRun(t *testing.T, e *Engine, utts, ref [][][]float32, ok func(got, want float32) bool) map[string][][][]float32 {
	t.Helper()
	out := map[string][][][]float32{}
	for _, workers := range []int{1, 2, 8} {
		e.SetWorkers(workers)
		for _, entry := range diffEntries {
			label := fmt.Sprintf("%s/w%d", entry.name, workers)
			out[label] = entry.run(e, utts)
			diffCheck(t, label, out[label], ref, ok)
		}
	}
	return out
}

// diffSame asserts a loaded engine's results equal the compiled engine's bit
// for bit: it runs the same programs.
func diffSame(t *testing.T, got, compiled map[string][][][]float32) {
	t.Helper()
	for label, want := range compiled {
		diffCheck(t, label+" vs compiled", got[label], want,
			func(got, want float32) bool { return got == want })
	}
}

// diffRef scores utts on the training-side reference.
func diffRef(model *nn.Model, utts [][][]float32) [][][]float32 {
	ref := make([][][]float32, len(utts))
	for i, u := range utts {
		ref[i] = nn.Posteriors(model.Forward(u))
	}
	return ref
}

func TestEngineDifferential(t *testing.T) {
	spec := nn.ModelSpec{InputDim: 13, Hidden: 64, NumLayers: 2, OutputDim: 9, Seed: 77}
	utts := diffUtterances(spec.InputDim)
	// Workers 2 and 8 must really fork: the test model is far below the
	// fork-join break-even.
	defer func(prev int) { forkJoinBreakEvenMACs = prev }(forkJoinBreakEvenMACs)
	forkJoinBreakEvenMACs = 0

	for _, rate := range diffRates {
		for _, tier := range diffTiers {
			model := nn.NewModel(spec)
			res := Prune(model, nil, PruneConfig{ColRate: rate.col, RowRate: rate.row})
			eng, err := Compile(model, res.Scheme, DeployConfig{
				Target: device.MobileCPU(), Quant: tier.quant, Precision: tier.precision,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The caller's model after Compile's weight rounding: what the
			// programs were lowered from.
			ref := diffRef(model, utts)
			var compiled map[string][][][]float32
			for _, loader := range diffLoaders {
				t.Run(fmt.Sprintf("%s/%s/%s", rate.name, tier.name, loader.name), func(t *testing.T) {
					got := diffRun(t, loader.load(t, eng, res.Scheme), utts, ref, tier.close)
					if loader.name == "Compile" {
						compiled = got
					}
					diffSame(t, got, compiled)
				})
			}
			// The engine holds its own copies: training (here, shifting)
			// every weight and bias of the caller's model afterwards changes
			// nothing it serves.
			t.Run(fmt.Sprintf("%s/%s/caller-model-changed", rate.name, tier.name), func(t *testing.T) {
				for _, p := range model.Params() {
					for i := range p.W.Data {
						p.W.Data[i] += 0.5
					}
				}
				diffSame(t, diffRun(t, eng, utts, ref, tier.close), compiled)
			})
		}
	}

	// The committed fixtures (testdata/README.md): each is exactly what
	// deploying its model writes, maps to an engine that scores under its
	// tier's contract and bit-equal to a fresh Compile, and re-deploys
	// (ReadBundle + Compile) to its own bytes.
	utts = diffUtterances(fixtureSpec.InputDim)
	for _, fx := range []struct {
		file string
		tier diffTier
	}{
		{"parent_v5.rtmb", diffTiers[0]},
		{"parent_v5_q8.rtmb", diffTiers[2]},
		{"parent_v5_q16.rtmb", diffTiers[3]},
	} {
		t.Run(fx.file, func(t *testing.T) {
			model := fixtureModel()
			eng, err := Compile(model, fixtureScheme, DeployConfig{Target: device.MobileCPU(), Quant: fx.tier.quant})
			if err != nil {
				t.Fatal(err)
			}
			ref := diffRef(model, utts)
			compiled := diffRun(t, eng, utts, ref, fx.tier.close)
			image := readFixture(t, fx.file)
			var fresh, redeployed bytes.Buffer
			if err := eng.SaveBundle(&fresh, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			again, _ := relower(t, image, nil)
			if err := again.SaveBundle(&redeployed, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh.Bytes(), image) || !bytes.Equal(redeployed.Bytes(), image) {
				t.Fatalf("a fresh Compile or a re-deploy does not write %s's bytes", fx.file)
			}
			mb, err := MapBundle(filepath.Join("testdata", fx.file), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mb.Close()
			diffSame(t, diffRun(t, mb.Engine(), utts, ref, fx.tier.close), compiled)
		})
	}

	// Every way of obtaining an engine builds the one shape Compile builds:
	// spec, biases, programs.
	t.Run("engines-hold-no-dense-weights", func(t *testing.T) {
		for _, file := range []string{"parent_v5.rtmb", "parent_v5_q8.rtmb"} {
			image := readFixture(t, file)
			_, _, cfg, err := ReadBundle(bytes.NewReader(image), nil)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := Compile(fixtureModel(), fixtureScheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := relower(t, image, nil)
			checkHoldsNoDenseWeights(t, file+" Compile", eng)
			checkHoldsNoDenseWeights(t, file+" MapBundle", mustMap(t, image, nil))
			checkHoldsNoDenseWeights(t, file+" re-deployed", again)
		}
	})

	// The tile describes the modelled target's kernel: an engine compiled
	// under another unroll factor records it and runs the very same
	// programs — identical sections, identical bits — on every tier.
	for _, tier := range diffTiers {
		t.Run("tile-unroll8/"+tier.name, func(t *testing.T) {
			var engs [2]*Engine
			var model *nn.Model
			for i, unroll := range []int{1, 8} {
				tile := compiler.DefaultTile()
				tile.Unroll = unroll
				model = fixtureModel()
				eng, err := Compile(model, fixtureScheme, DeployConfig{
					Target: device.MobileCPU(), Tile: tile, Quant: tier.quant, Precision: tier.precision,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := eng.Plan().Options.Tile.Unroll; got != unroll {
					t.Fatalf("plan records unroll %d, want %d", got, unroll)
				}
				engs[i] = eng
			}
			for i, p := range engs[0].progs {
				if !reflect.DeepEqual(p.Sections(), engs[1].progs[i].Sections()) {
					t.Fatalf("program %s differs between unroll 1 and 8", p.Name)
				}
			}
			ref := diffRef(model, utts)
			diffSame(t, diffRun(t, engs[1], utts, ref, tier.close), diffRun(t, engs[0], utts, ref, tier.close))
		})
	}
}

// diffCheck compares per-utterance, per-frame posteriors under a contract.
func diffCheck(t *testing.T, label string, got, want [][][]float32, ok func(got, want float32) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d utterances, want %d", label, len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("%s: utterance %d has %d frames, want %d", label, u, len(got[u]), len(want[u]))
		}
		for f := range want[u] {
			for j := range want[u][f] {
				if !ok(got[u][f][j], want[u][f][j]) {
					t.Fatalf("%s: utterance %d frame %d phone %d: %v, want %v",
						label, u, f, j, got[u][f][j], want[u][f][j])
				}
			}
		}
	}
}

// checkHoldsNoDenseWeights asserts the engine's one shape: its shell holds
// storage for exactly the params no program covers, and no W or Grad
// storage for a covered one.
func checkHoldsNoDenseWeights(t *testing.T, label string, e *Engine) {
	t.Helper()
	for _, p := range e.shell.Params() {
		covered := e.program(p.Name) != nil
		if covered && (p.W.Data != nil || p.Grad != nil && p.Grad.Data != nil) {
			t.Fatalf("%s: %s has a program and still holds dense storage", label, p.Name)
		}
		if !covered && len(p.W.Data) != p.W.Rows*p.W.Cols {
			t.Fatalf("%s: %s has no program and holds %d of its %d values",
				label, p.Name, len(p.W.Data), p.W.Rows*p.W.Cols)
		}
	}
}
