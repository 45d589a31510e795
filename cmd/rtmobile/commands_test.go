package main

import (
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

// TestCLIWorkflow drives train → prune → compile → deploy → run through
// the command functions end to end in a temp directory.
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
	if err := cmdCompile([]string{"-in", pruned, "-col", "2", "-row", "1", "-listing"}); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := cmdDeploy([]string{"-in", pruned, "-col", "2", "-row", "1", "-out", bundle,
		"-autotune"}); err != nil {
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
// writes (v5), smaller than the dense weights it was compiled from, and
// the file scores bit-identically through both front doors — MapBundle,
// which serve, registry and run use, and LoadBundle's io.Reader.
func TestCmdDeployBundleVersions(t *testing.T) {
	dir := t.TempDir()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 64, NumLayers: 1, OutputDim: 6, Seed: 9,
	})
	rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: 2, RowRate: 1, RowGroups: 2, ColBlocks: 2,
	})
	pruned := filepath.Join(dir, "p.bin")
	f, err := os.Create(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	schemeArgs := []string{"-col", "2", "-row", "1", "-row-groups", "2", "-col-blocks", "2", "-target", "cpu"}
	b5 := filepath.Join(dir, "m5.rtmb")
	if err := cmdDeploy(append([]string{"-in", pruned, "-out", b5}, schemeArgs...)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	info, err := os.Stat(b5)
	if err != nil {
		t.Fatal(err)
	}
	if dense := int64(4 * model.NumParams()); info.Size() >= dense {
		t.Fatalf("bundle is %d bytes, not below the %d bytes of the dense model", info.Size(), dense)
	}

	mb, err := rtmobile.MapBundle(b5, device.MobileCPU())
	if err != nil {
		t.Fatalf("map bundle: %v", err)
	}
	defer mb.Close()
	if mb.Version() != 5 {
		t.Fatalf("bundle version %d, want 5", mb.Version())
	}
	f, err = os.Open(b5)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, _, err := rtmobile.LoadBundle(f, device.MobileCPU())
	if err != nil {
		t.Fatalf("load bundle: %v", err)
	}

	frames := serveFrames(5, mb.Engine().InputDim())
	if err := samePost(loaded.Infer(frames), mb.Engine().Infer(frames)); err != nil {
		t.Fatalf("LoadBundle and MapBundle inference diverge: %v", err)
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
	if err := cmdCompile([]string{"-in", "/nonexistent/model.bin"}); err == nil {
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
		{"compile", cmdCompile, []string{"-in", "/nonexistent/m.bin", "stray", "-target", "cpu"}, "stray"},
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
