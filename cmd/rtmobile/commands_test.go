package main

import (
	"os"
	"path/filepath"
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

// TestCmdDeployBundleVersions: deploy writes either wire format on
// request, the two bundles load through the same front door, and their
// inference is bit-identical — the v4↔v5 round trip loses nothing.
func TestCmdDeployBundleVersions(t *testing.T) {
	dir := t.TempDir()
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 8, Hidden: 16, NumLayers: 1, OutputDim: 6, Seed: 9,
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
	b4 := filepath.Join(dir, "m4.rtmb")
	b5 := filepath.Join(dir, "m5.rtmb")
	if err := cmdDeploy(append([]string{"-in", pruned, "-out", b4, "-bundle-version", "4"}, schemeArgs...)); err != nil {
		t.Fatalf("deploy v4: %v", err)
	}
	if err := cmdDeploy(append([]string{"-in", pruned, "-out", b5, "-bundle-version", "5"}, schemeArgs...)); err != nil {
		t.Fatalf("deploy v5: %v", err)
	}
	if err := cmdDeploy(append([]string{"-in", pruned, "-out", filepath.Join(dir, "m3.rtmb"),
		"-bundle-version", "3"}, schemeArgs...)); err == nil {
		t.Fatal("-bundle-version 3 accepted")
	}

	mb4, err := rtmobile.MapBundle(b4, device.MobileCPU())
	if err != nil {
		t.Fatalf("load v4 bundle: %v", err)
	}
	defer mb4.Close()
	mb5, err := rtmobile.MapBundle(b5, device.MobileCPU())
	if err != nil {
		t.Fatalf("load v5 bundle: %v", err)
	}
	defer mb5.Close()
	if mb4.Version() != 4 || mb5.Version() != 5 {
		t.Fatalf("bundle versions %d, %d; want 4, 5", mb4.Version(), mb5.Version())
	}

	frames := serveFrames(5, mb4.Engine().InputDim())
	want := mb4.Engine().Infer(frames)
	got := mb5.Engine().Infer(frames)
	if err := samePost(got, want); err != nil {
		t.Fatalf("v4/v5 deployed inference diverges: %v", err)
	}
}

func TestCmdBenchUnknownExperiment(t *testing.T) {
	if err := cmdBench([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
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
