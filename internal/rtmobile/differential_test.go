package rtmobile

import (
	"bytes"
	"encoding/json"
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
// Whatever the tier, an engine loaded
// from a bundle must reproduce the compiled engine bit for bit: it runs the
// same programs.

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
		mb, err := MapBundle(writeBundleFileScheme(t, eng, scheme, 5), device.MobileCPU())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mb.Close() })
		return mb.Engine()
	}},
	{"LoadBundleV4", func(t *testing.T, eng *Engine, scheme prune.BSP) *Engine {
		var buf bytes.Buffer
		if err := eng.saveBundleV4(&buf, scheme); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := LoadBundle(&buf, device.MobileCPU())
		if err != nil {
			t.Fatal(err)
		}
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

	// Bundles written by the commit before the packed program types were
	// folded into one (testdata/README.md): they must load, score under
	// their tier's contract and run what a fresh Compile runs. The v5 files
	// also pin the section layout: a fresh Compile writes the same programs
	// and metadata — only the param directory differs, the covered params'
	// dense sections being gone — and re-saving a mapped fixture writes
	// exactly a fresh Compile's bytes.
	utts = diffUtterances(fixtureSpec.InputDim)
	for _, fx := range []struct {
		file    string
		version int
		tier    diffTier
	}{
		{"parent_v4.rtmb", 4, diffTiers[0]},
		{"parent_v5.rtmb", 5, diffTiers[0]},
		{"parent_v4_q8.rtmb", 4, diffTiers[2]},
		{"parent_v5_q8.rtmb", 5, diffTiers[2]},
		{"parent_v5_q16.rtmb", 5, diffTiers[3]},
	} {
		t.Run(fx.file, func(t *testing.T) {
			model := fixtureModel()
			eng, err := Compile(model, fixtureScheme, DeployConfig{Target: device.MobileCPU(), Quant: fx.tier.quant})
			if err != nil {
				t.Fatal(err)
			}
			ref := diffRef(model, utts)
			compiled := diffRun(t, eng, utts, ref, fx.tier.close)

			mb, err := MapBundle(filepath.Join("testdata", fx.file), device.MobileCPU())
			if err != nil {
				t.Fatal(err)
			}
			defer mb.Close()
			if mb.Version() != fx.version {
				t.Fatalf("fixture is version %d, want %d", mb.Version(), fx.version)
			}
			diffSame(t, diffRun(t, mb.Engine(), utts, ref, fx.tier.close), compiled)
			if fx.version != 5 {
				return
			}

			var fresh, resaved bytes.Buffer
			if err := eng.SaveBundle(&fresh, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			sameV5Layout(t, readFixture(t, fx.file), fresh.Bytes())
			if err := mb.Engine().SaveBundle(&resaved, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), fresh.Bytes()) {
				t.Fatalf("re-saving the mapped %s does not give a fresh Compile's bytes", fx.file)
			}
		})
	}

	// Every way of obtaining an engine builds the one shape Compile builds:
	// spec, biases, programs — whatever the file it came from carried.
	t.Run("engines-hold-no-dense-weights", func(t *testing.T) {
		fixtures := map[int][]string{0: {"parent_v4.rtmb", "parent_v5.rtmb"}, 8: {"parent_v4_q8.rtmb", "parent_v5_q8.rtmb"}}
		for quant, fixtureFiles := range fixtures {
			eng, err := Compile(fixtureModel(), fixtureScheme, DeployConfig{Target: device.MobileCPU(), Quant: quant})
			if err != nil {
				t.Fatal(err)
			}
			var v4, v5 bytes.Buffer
			if err := eng.saveBundleV4(&v4, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			if err := eng.SaveBundle(&v5, fixtureScheme); err != nil {
				t.Fatal(err)
			}
			images := map[string][]byte{"v3": asV3(v4.Bytes()), "v4": v4.Bytes(), "v5": v5.Bytes()}
			if quant == 0 { // v1 and v2 predate quantization
				images["v1"], images["v2"] = asV1(v4.Bytes()), asV2(v4.Bytes())
			}
			files := []string{writeBundleFileScheme(t, eng, fixtureScheme, 4), writeBundleFileScheme(t, eng, fixtureScheme, 5)}
			for _, name := range fixtureFiles {
				files = append(files, filepath.Join("testdata", name))
			}
			checkHoldsNoDenseWeights(t, "Compile", eng)
			for version, image := range images {
				loaded, _, err := LoadBundle(bytes.NewReader(image), device.MobileCPU())
				if err != nil {
					t.Fatal(err)
				}
				checkHoldsNoDenseWeights(t, fmt.Sprintf("q%d LoadBundle %s", quant, version), loaded)
			}
			for _, path := range files {
				mb, err := MapBundle(path, device.MobileCPU())
				if err != nil {
					t.Fatal(err)
				}
				checkHoldsNoDenseWeights(t, fmt.Sprintf("q%d MapBundle %s (v%d)", quant, path, mb.Version()), mb.Engine())
				mb.Close()
			}
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

// v5Resolved parses a v5 image's metadata and returns it with the payload
// lookup its section ids resolve through (nil for id 0).
func v5Resolved(t *testing.T, image []byte) (v5Meta, func(id uint32) []byte) {
	t.Helper()
	sections, err := parseV5Sections(image)
	if err != nil {
		t.Fatal(err)
	}
	var meta v5Meta
	if err := json.Unmarshal(sections[v5SecMeta], &meta); err != nil {
		t.Fatal(err)
	}
	return meta, func(id uint32) []byte {
		if id == 0 {
			return nil
		}
		return sections[id]
	}
}

// sameV5Layout asserts that got stores what want stores, section ids
// aside: every program's header and section payloads, and every metadata
// field but the param directory, byte for byte. Of the param directory it
// requires the same names and shapes, and that each section got keeps (a
// param no program covers) holds want's bytes.
func sameV5Layout(t *testing.T, want, got []byte) {
	t.Helper()
	wm, wsec := v5Resolved(t, want)
	gm, gsec := v5Resolved(t, got)
	if len(gm.Programs) != len(wm.Programs) || len(gm.Params) != len(wm.Params) {
		t.Fatalf("%d programs / %d params, want %d / %d",
			len(gm.Programs), len(gm.Params), len(wm.Programs), len(wm.Params))
	}
	for i := range wm.Programs {
		w, g := &wm.Programs[i], &gm.Programs[i]
		for _, sec := range []struct {
			name string
			w, g *uint32
		}{
			{"vals", &w.SecVals, &g.SecVals}, {"qvals", &w.SecQVals, &g.SecQVals},
			{"scales", &w.SecScales, &g.SecScales}, {"colidx", &w.SecColIdx, &g.SecColIdx},
			{"segs", &w.SecSegs, &g.SecSegs}, {"rows", &w.SecRows, &g.SecRows},
			{"lane segs", &w.SecLaneSegs, &g.SecLaneSegs}, {"lane rows", &w.SecLaneRows, &g.SecLaneRows},
		} {
			if (*sec.w == 0) != (*sec.g == 0) || !bytes.Equal(wsec(*sec.w), gsec(*sec.g)) {
				t.Fatalf("program %s: %s section differs", w.Name, sec.name)
			}
			*sec.w, *sec.g = 0, 0
		}
	}
	for i := range wm.Params {
		w, g := wm.Params[i], gm.Params[i]
		if w.Name != g.Name || w.Rows != g.Rows || w.Cols != g.Cols {
			t.Fatalf("param %d is %s %dx%d, want %s %dx%d", i, g.Name, g.Rows, g.Cols, w.Name, w.Rows, w.Cols)
		}
		if g.Section != 0 && !bytes.Equal(gsec(g.Section), wsec(w.Section)) {
			t.Fatalf("param %s: section differs", g.Name)
		}
	}
	wm.Params, gm.Params = nil, nil
	wj, err := json.Marshal(&wm)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(&gm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("metadata differs outside the param directory:\n got %s\nwant %s", gj, wj)
	}
}
