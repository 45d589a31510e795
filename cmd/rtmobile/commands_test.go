package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/speech"
)

func TestParseTarget(t *testing.T) {
	gpu, err := parseTarget("gpu")
	if err != nil || gpu.Name != "adreno640-gpu" {
		t.Fatalf("gpu parse: %v %v", gpu, err)
	}
	cpu, err := parseTarget("cpu")
	if err != nil || cpu.Name != "kryo485-cpu" {
		t.Fatalf("cpu parse: %v %v", cpu, err)
	}
	if _, err := parseTarget("tpu"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]compiler.Format{
		"bspc": compiler.FormatBSPC, "csr": compiler.FormatCSR, "dense": compiler.FormatDense,
	}
	for name, want := range cases {
		got, err := parseFormat(name)
		if err != nil || got != want {
			t.Fatalf("parseFormat(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseFormat("coo"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestExportWAVs(t *testing.T) {
	dir := t.TempDir()
	cfg := speech.DefaultCorpusConfig()
	cfg.NumSpeakers = 2
	cfg.PhonesPerSentence = 4
	if err := exportWAVs(cfg, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("exported %d files, want 2", len(entries))
	}
	// Files are valid WAVs.
	f, err := os.Open(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, rate, err := speech.ReadWAV(f)
	if err != nil {
		t.Fatal(err)
	}
	if rate != speech.SampleRate || len(samples) < speech.SampleRate/10 {
		t.Fatalf("exported WAV %d samples at %d Hz", len(samples), rate)
	}
}

// TestCLIWorkflow drives train → prune → deploy → run through the command
// functions end to end in a temp directory.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "m.bin")
	pruned := filepath.Join(dir, "p.bin")
	bundle := filepath.Join(dir, "m.rtmb")
	corpus := []string{"-speakers", "4", "-sentences", "1", "-phones", "6"}

	if err := cmdTrain(append([]string{"-hidden", "12", "-epochs", "1", "-out", model}, corpus...)); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdPrune(append([]string{"-in", model, "-out", pruned,
		"-col", "2", "-row", "1", "-admm-iters", "1", "-finetune-epochs", "1"}, corpus...)); err != nil {
		t.Fatalf("prune: %v", err)
	}
	if err := cmdDeploy([]string{"-in", pruned, "-col", "2", "-row", "1", "-out", bundle,
		"-autotune", "-listing"}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := cmdRun(append([]string{"-bundle", bundle, "-stats"}, corpus...)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cmdCorpus(append([]string{"-v"}, corpus...)); err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if err := cmdAutotune([]string{"-hidden", "16", "-col", "2", "-row", "1"}); err != nil {
		t.Fatalf("autotune: %v", err)
	}
}

// TestCmdDeployBundleVersions: deploy writes the one format this tree
// writes and reads (v5), smaller than the dense weights it was compiled
// from, and `deploy -in` lowers a bundle again — the one place a deployment
// is lowered. Deploying the same input with the same flags writes the same
// bytes; re-deploying a file with no flag set rewrites its bytes, under the
// target it records; each committed fixture is exactly what deploying its
// model writes; -quant and -precision re-deploy what a fresh Compile of the
// deployed weights at that width or tier runs; and a plan cache recording
// an analytic search is searched again to the same verdict.
func TestCmdDeployBundleVersions(t *testing.T) {
	dir := t.TempDir()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 64, NumLayers: 1, OutputDim: 6, Seed: 9,
	})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
	})
	pruned := saveModel(t, dir, "p.bin", model)

	schemeArgs := []string{"-col", "2", "-row", "1", "-row-groups", "2", "-col-blocks", "2"}
	deploy := func(t *testing.T, in, out string, args ...string) *rtmobile.Engine {
		t.Helper()
		if err := cmdDeploy(append([]string{"-in", in, "-out", out}, args...)); err != nil {
			t.Fatalf("deploy -in %s %v: %v", filepath.Base(in), args, err)
		}
		mb, err := rtmobile.MapBundle(out, device.MobileCPU())
		if err != nil {
			t.Fatalf("map %s: %v", filepath.Base(out), err)
		}
		t.Cleanup(func() { mb.Close() })
		return mb.Engine()
	}
	sameBytes := func(t *testing.T, a, b string) {
		t.Helper()
		x, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Fatalf("%s and %s differ", filepath.Base(a), filepath.Base(b))
		}
	}
	scores := func(t *testing.T, got, want *rtmobile.Engine) {
		t.Helper()
		frames := serveFrames(5, want.InputDim())
		if err := samePost(got.Infer(frames), want.Infer(frames)); err != nil {
			t.Fatal(err)
		}
	}

	b5 := filepath.Join(dir, "m5.rtmb")
	eng := deploy(t, pruned, b5, append(schemeArgs, "-target", "cpu")...)
	info, err := os.Stat(b5)
	if err != nil {
		t.Fatal(err)
	}
	if dense := int64(4 * model.NumParams()); info.Size() >= dense {
		t.Fatalf("bundle is %d bytes, not below the %d bytes of the dense model", info.Size(), dense)
	}
	t.Run("redeploy-as-is", func(t *testing.T) {
		twice := filepath.Join(dir, "twice.rtmb")
		deploy(t, pruned, twice, append(schemeArgs, "-target", "cpu")...)
		sameBytes(t, twice, b5)
		// No -target: the bundle keeps the cpu target it was lowered for.
		again := filepath.Join(dir, "again.rtmb")
		scores(t, deploy(t, b5, again), eng)
		sameBytes(t, again, b5)
		// The bundle computes in fp32; the 16-bit gpu would round it again.
		err := cmdDeploy([]string{"-in", b5, "-out", again, "-target", "gpu"})
		if err == nil || !strings.Contains(err.Error(), "kryo485-cpu") || !strings.Contains(err.Error(), "adreno640-gpu") {
			t.Fatalf("deploy -in an fp32 bundle -target gpu: error %v, want one naming both targets", err)
		}
	})

	// The fixtures' deployment (internal/rtmobile/testdata/README.md): each
	// fixture is what deploying the model writes, and what re-deploying the
	// fixture writes.
	t.Run("fixtures", func(t *testing.T) {
		fx := nn.NewModel(nn.ModelSpec{InputDim: 8, Hidden: 16, NumLayers: 2, OutputDim: 6, Seed: 48})
		rtmobile.Prune(fx, nil, rtmobile.PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 4})
		fxModel := saveModel(t, dir, "fixture.bin", fx)
		fxArgs := []string{"-col", "2", "-row", "1", "-row-groups", "2", "-col-blocks", "4", "-target", "cpu"}
		for name, quant := range map[string]string{"parent_v5.rtmb": "0", "parent_v5_q8.rtmb": "8", "parent_v5_q16.rtmb": "16"} {
			file := filepath.Join("..", "..", "internal", "rtmobile", "testdata", name)
			want := filepath.Join(dir, "fresh_q"+quant+".rtmb")
			fresh := deploy(t, fxModel, want, append(fxArgs, "-quant", quant)...)
			sameBytes(t, want, file)
			got := filepath.Join(dir, "re_"+name)
			scores(t, deploy(t, file, got), fresh)
			sameBytes(t, got, file)
		}
	})

	// -quant and -precision on a bundle re-lower the weights it deployed:
	// on the fp16 target those are the model's weights rounded to fp16.
	t.Run("quant-and-precision", func(t *testing.T) {
		bg := filepath.Join(dir, "gpu.rtmb")
		if err := cmdDeploy(append([]string{"-in", pruned, "-out", bg}, schemeArgs...)); err != nil {
			t.Fatal(err)
		}
		deployed, err := loadModel(pruned)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rtmobile.Compile(deployed, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()}); err != nil {
			t.Fatal(err) // rounds deployed in place to the weights bg holds
		}
		for _, tc := range []struct {
			flag, value string
			cfg         rtmobile.DeployConfig
		}{
			{"-quant", "8", rtmobile.DeployConfig{Target: device.MobileGPU(), Quant: 8}},
			{"-precision", "fast", rtmobile.DeployConfig{Target: device.MobileGPU(), Precision: compiler.PrecisionFast}},
		} {
			want, err := rtmobile.Compile(deployed.Clone(), res.Scheme, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, "gpu"+tc.flag+".rtmb")
			if err := cmdDeploy([]string{"-in", bg, "-out", out, tc.flag, tc.value}); err != nil {
				t.Fatal(err)
			}
			mb, err := rtmobile.MapBundle(out, device.MobileGPU())
			if err != nil {
				t.Fatal(err)
			}
			defer mb.Close()
			got := mb.Engine()
			if got.Quantized() != tc.cfg.Quant || got.Precision() != tc.cfg.Precision || mb.Scheme() != res.Scheme {
				t.Fatalf("%s %s: deployed int%d %v %+v", tc.flag, tc.value, got.Quantized(), got.Precision(), mb.Scheme())
			}
			scores(t, got, want)
		}
	})

	// The plan-cache rule: an analytic verdict is searched again — the same
	// tile at the same cost — unless -autotune=false, which keeps the tile
	// and records no search.
	t.Run("plan-cache", func(t *testing.T) {
		tuned := filepath.Join(dir, "tuned.rtmb")
		first := deploy(t, pruned, tuned, append(schemeArgs, "-target", "cpu", "-autotune")...)
		if first.Tuned().Mode != rtmobile.TuneAnalytic {
			t.Fatalf("-autotune recorded %+v", first.Tuned())
		}
		again := filepath.Join(dir, "tuned-again.rtmb")
		searched := deploy(t, tuned, again)
		if searched.Tuned() != first.Tuned() || searched.Plan().Options.Tile != first.Plan().Options.Tile {
			t.Fatalf("re-deploy recorded %+v %+v, want %+v %+v", searched.Tuned(), searched.Plan().Options.Tile,
				first.Tuned(), first.Plan().Options.Tile)
		}
		sameBytes(t, again, tuned)
		kept := deploy(t, tuned, filepath.Join(dir, "untuned.rtmb"), "-autotune=false")
		if kept.Tuned().Mode != rtmobile.TuneNone || kept.Plan().Options.Tile != first.Plan().Options.Tile {
			t.Fatalf("-autotune=false recorded %+v, tile %+v", kept.Tuned(), kept.Plan().Options.Tile)
		}
	})
}

// saveModel writes m to dir/name and returns the path.
func saveModel(t *testing.T, dir, name string, m *nn.Model) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	return string(<-out), ferr
}

// TestCmdRunPricesBundleTarget: run has no -target; it prices a bundle
// under the target the bundle was lowered for, as MapBundle for that
// target does.
func TestCmdRunPricesBundleTarget(t *testing.T) {
	dir := t.TempDir()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: speech.DefaultCorpusConfig().Features.Dim(), Hidden: 16, NumLayers: 1,
		OutputDim: speech.NumPhones, Seed: 5,
	})
	rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2})
	bundle := filepath.Join(dir, "cpu.rtmb")
	if err := cmdDeploy([]string{"-in", saveModel(t, dir, "p.bin", model), "-out", bundle,
		"-col", "2", "-row", "1", "-row-groups", "2", "-col-blocks", "2", "-target", "cpu"}); err != nil {
		t.Fatal(err)
	}
	mb, err := rtmobile.MapBundle(bundle, device.MobileCPU())
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	eng := mb.Engine()
	want := fmt.Sprintf("latency %.2f us/frame, real-time factor %.0fx\n", eng.Latency().TotalUS, eng.RealTimeFactor())
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-bundle", bundle, "-speakers", "2", "-sentences", "1", "-phones", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, want) || !strings.Contains(out, "kryo485-cpu") {
		t.Fatalf("run printed\n%s\nwant the kryo485-cpu pricing %q", out, want)
	}
}

// TestCmdRunChecksBundleShape: a bundle whose model does not take the
// corpus's frames or score its phone classes is an error naming both
// shapes, not a panic inside the engine.
func TestCmdRunChecksBundleShape(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "rtmobile", "testdata", "parent_v5.rtmb")
	err := cmdRun([]string{"-bundle", fixture, "-speakers", "2", "-sentences", "1", "-phones", "4"})
	if err == nil || !strings.Contains(err.Error(), "8-dim frames and scores 6 classes") ||
		!strings.Contains(err.Error(), "39-dim frames and 39 phone classes") {
		t.Fatalf("run -bundle %s: error %v, want one naming both shapes", fixture, err)
	}
}

// TestCmdErrorPrefix: a failed command prints one "rtmobile: " prefix,
// whether the error comes from the library, which carries it already, or
// from the command itself.
func TestCmdErrorPrefix(t *testing.T) {
	v4 := filepath.Join(t.TempDir(), "v4.rtmb")
	if err := os.WriteFile(v4, append([]byte("RTMB\x04\x00\x00\x00"), make([]byte, 128)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{cmdRun([]string{"-bundle", v4}), "rtmobile: bundle is format version 4: re-deploy it with rtmobile deploy -in " + v4 + " at commit "},
		{cmdDeploy([]string{"-target", "tpu"}), `rtmobile: unknown target "tpu"`},
	} {
		line := errorLine(tc.err)
		if !strings.HasPrefix(line, tc.want) || strings.Count(line, "rtmobile: ") != 1 {
			t.Fatalf("error line %q, want one prefix and %q", line, tc.want)
		}
	}
}

func TestCmdBenchUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "scaling", "quant"} {
		if err := cmdBench([]string{"-exp", exp}); err == nil {
			t.Fatalf("unknown experiment %q accepted", exp)
		}
	}
}

func TestCmdErrorsOnMissingFiles(t *testing.T) {
	if err := cmdDeploy([]string{"-in", "/nonexistent/model.bin"}); err == nil {
		t.Fatal("missing model accepted")
	}
	if err := cmdRun([]string{"-bundle", "/nonexistent/b.rtmb"}); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

// TestCmdRejectsStrayArguments: flag parsing stops at the first non-flag
// argument, so every subcommand must refuse one instead of silently dropping
// the flags after it. Each case puts an invalid flag before the stray value,
// so a command that ignored the leftover would still fail fast — but on the
// flag, not on the argument the error must name.
func TestCmdRejectsStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cmd   func([]string) error
		args  []string
		stray string
	}{
		{"corpus", cmdCorpus, []string{"-speakers", "1", "stray"}, "stray"},
		{"train", cmdTrain, []string{"-workers", "-1", "stray", "-epochs", "1"}, "stray"},
		{"prune", cmdPrune, []string{"-in", "/nonexistent/m.bin", "stray"}, "stray"},
		{"autotune", cmdAutotune, []string{"-target", "nope", "stray"}, "stray"},
		{"bench", cmdBench, []string{"-exp", "nope", "stray"}, "stray"},
		{"deploy", cmdDeploy, []string{"-in", "/nonexistent/m.bin", "stray", "-out", "x.rtmb"}, "stray"},
		{"run", cmdRun, []string{"-bundle", "/nonexistent/b.rtmb", "stray", "-stats"}, "stray"},
		{"loadgen", cmdLoadgen, []string{"-qps", "0", "stray"}, "stray"},
		// A boolean -trace followed by a value, as the old ring capacity was.
		{"serve", cmdServe, []string{"-bundle", "/nonexistent/m.rtmb", "-trace", "4096", "-addr", "127.0.0.1:0"}, "4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cmd(tc.args)
			if err == nil || !strings.Contains(err.Error(), `"`+tc.stray+`"`) {
				t.Fatalf("%s %v: error %v, want one naming the stray argument %q", tc.name, tc.args, err, tc.stray)
			}
		})
	}
}
