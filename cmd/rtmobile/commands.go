package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"rtmobile/internal/bench"
	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

// workersFlag adds the shared -workers knob: 0 keeps the process default
// (RTMOBILE_WORKERS env, else NumCPU). applyWorkers also points the dense
// training kernels at a matching pool so train/prune scale too.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (0 = RTMOBILE_WORKERS env or NumCPU)")
}

// applyWorkers validates the -workers request against the environment
// (negative flags and garbage RTMOBILE_WORKERS values are loud errors, not
// silent clamps) and points the dense kernels at a matching pool when an
// explicit size was given.
func applyWorkers(n int) error {
	if _, err := parallel.ResolveWorkers(n); err != nil {
		return err
	}
	if n > 0 {
		tensor.SetPool(parallel.NewPool(n))
	}
	return nil
}

// parseFlags parses a subcommand's arguments and refuses any left over:
// flag parsing stops at the first non-flag argument, so without the check
// every flag after a stray value would be silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q (flags after it were not parsed)", fs.Name(), fs.Arg(0))
	}
	return nil
}

// corpusFlags adds the shared corpus-shaping flags to a flag set.
func corpusFlags(fs *flag.FlagSet) *speech.CorpusConfig {
	cfg := speech.DefaultCorpusConfig()
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "corpus seed")
	fs.IntVar(&cfg.NumSpeakers, "speakers", cfg.NumSpeakers, "number of speakers")
	fs.IntVar(&cfg.SentencesPerSpeaker, "sentences", cfg.SentencesPerSpeaker, "sentences per speaker")
	fs.IntVar(&cfg.PhonesPerSentence, "phones", cfg.PhonesPerSentence, "mean phones per sentence")
	fs.Float64Var(&cfg.TestFraction, "test-fraction", cfg.TestFraction, "held-out speaker fraction")
	return &cfg
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	cfg := corpusFlags(fs)
	verbose := fs.Bool("v", false, "print a sample utterance alignment")
	wavDir := fs.String("wav-dir", "", "directory to export sample WAV files to")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	c, err := speech.GenerateCorpus(*cfg)
	if err != nil {
		return err
	}
	if *wavDir != "" {
		if err := exportWAVs(*cfg, *wavDir); err != nil {
			return err
		}
	}
	fmt.Printf("corpus seed %d: %d speakers, %d dialect regions\n",
		cfg.Seed, cfg.NumSpeakers, speech.NumDialects)
	fmt.Printf("train: %d utterances, %d frames\n", len(c.Train), speech.TotalFrames(c.Train))
	fmt.Printf("test:  %d utterances, %d frames (speaker-disjoint)\n", len(c.Test), speech.TotalFrames(c.Test))
	fmt.Printf("features: %d-dim MFCC+delta+deltadelta, %d phone classes\n",
		cfg.Features.Dim(), speech.NumPhones)
	if *verbose && len(c.Train) > 0 {
		u := c.Train[0]
		fmt.Printf("\nsample utterance (speaker %d, %d frames):\n  phones:", u.Speaker, len(u.Frames))
		for _, p := range u.Phones {
			fmt.Printf(" %s", speech.PhoneSymbol(p))
		}
		fmt.Println()
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	cfg := corpusFlags(fs)
	hidden := fs.Int("hidden", 128, "GRU hidden size")
	layers := fs.Int("layers", 2, "GRU layers")
	epochs := fs.Int("epochs", 20, "training epochs")
	lr := fs.Float64("lr", 3e-3, "Adam learning rate")
	out := fs.String("out", "model.bin", "output model path")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	c, err := speech.GenerateCorpus(*cfg)
	if err != nil {
		return err
	}
	train := toSequences(c.Train)
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: cfg.Features.Dim(), Hidden: *hidden, NumLayers: *layers,
		OutputDim: speech.NumPhones, Seed: 7,
	})
	fmt.Printf("training %s (%d params) on %d utterances...\n",
		model.Spec, model.NumParams(), len(train))
	loss := model.Train(train, nn.NewAdam(*lr), nn.TrainConfig{
		Epochs: *epochs, Seed: 11, LogEvery: 2,
		Logf: func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) },
	})
	fmt.Printf("final train loss %.4f\n", loss)
	fmt.Printf("test PER %.2f%%\n", rtmobile.EvaluatePER(model, c.Test))
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("saved %s\n", *out)
	return nil
}

func cmdPrune(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	cfg := corpusFlags(fs)
	in := fs.String("in", "model.bin", "input model path")
	out := fs.String("out", "pruned.bin", "output model path")
	col := fs.Float64("col", 16, "column compression rate")
	row := fs.Float64("row", 2, "row compression rate")
	rowGroups := fs.Int("row-groups", 8, "BSP row groups")
	colBlocks := fs.Int("col-blocks", 4, "BSP column blocks")
	iters := fs.Int("admm-iters", 3, "ADMM iterations")
	ftEpochs := fs.Int("finetune-epochs", 14, "masked fine-tune epochs")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	model, err := loadModel(*in)
	if err != nil {
		return err
	}
	c, err := speech.GenerateCorpus(*cfg)
	if err != nil {
		return err
	}
	train := toSequences(c.Train)
	before := rtmobile.EvaluatePER(model, c.Test)
	admm := prune.DefaultADMMConfig()
	admm.Iterations = *iters
	admm.FinetuneEpochs = *ftEpochs
	admm.FinetuneLR = 3e-3
	res := rtmobile.Prune(model, train, rtmobile.PruneConfig{
		ColRate: *col, RowRate: *row,
		RowGroups: *rowGroups, ColBlocks: *colBlocks, ADMM: admm,
	})
	after := rtmobile.EvaluatePER(model, c.Test)
	fmt.Printf("scheme %s: %d -> %d params (%.1fx)\n",
		res.Scheme.Name(), res.TotalParams, res.KeptParams, res.CompressionRate())
	fmt.Printf("PER %.2f%% -> %.2f%% (degradation %+.2f)\n", before, after, after-before)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("saved %s\n", *out)
	return nil
}

func cmdAutotune(args []string) error {
	fs := flag.NewFlagSet("autotune", flag.ExitOnError)
	targetName := fs.String("target", "gpu", "target: gpu or cpu")
	col := fs.Float64("col", 16, "column compression rate")
	row := fs.Float64("row", 2, "row compression rate")
	hidden := fs.Int("hidden", 1024, "GRU hidden size to tune for")
	accWeight := fs.Float64("acc-weight", 1.0, "accuracy-proxy weight in the block-size score")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	target, err := parseTarget(*targetName)
	if err != nil {
		return err
	}
	model := nn.NewGRUModel(nn.ModelSpec{
		InputDim: 39, Hidden: *hidden, NumLayers: 2, OutputDim: speech.NumPhones, Seed: 7,
	})
	rg, cb, err := rtmobile.AutoTuneBlockSize(model, *col, *row, target, *accWeight)
	if err != nil {
		return err
	}
	fmt.Printf("best BSP grid for %s at col %g / row %g: %d row groups x %d column blocks\n",
		target.Name, *col, *row, rg, cb)
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{
		ColRate: *col, RowRate: *row, RowGroups: rg, ColBlocks: cb,
	})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{
		Target: target, AutoTuneTiling: true,
	})
	if err != nil {
		return err
	}
	tile := eng.Plan().Options.Tile
	fmt.Printf("tuned tiling of the modelled %s kernel: rows %d x cols %d, unroll %d\n",
		target.Name, tile.RowTile, tile.ColTile, tile.Unroll)
	fmt.Printf("predicted latency: %.2f us/frame\n", eng.Latency().TotalUS)
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: table1, table2, fig4, ablation, blocksize, slo, or all")
	full := fs.Bool("full", false, "full-scale Table I (minutes of training)")
	stages := fs.Int("stages", 0, "override the BSP gradual-pruning stage count (0 = config default)")
	jsonOut := fs.String("json", "", "with -exp slo: also write the report as JSON to this path (e.g. BENCH_9.json)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	runT2 := func() ([]bench.TableIIRow, error) {
		return bench.RunTableII(bench.TableIIConfig{})
	}
	switch *exp {
	case "table1":
		cfg := bench.QuickTableIConfig()
		if *full {
			cfg = bench.FullTableIConfig()
		}
		if *stages > 0 {
			cfg.ScheduleStages = *stages
		}
		cfg.Logf = func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) }
		rows, err := bench.RunTableI(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableI(rows))
	case "table2":
		rows, err := runT2()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableII(rows))
	case "fig4":
		rows, err := runT2()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure4(bench.Figure4(rows)))
	case "ablation":
		rows, err := bench.RunAblation(bench.DefaultAblationConfig())
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderAblation(rows, "103x"))
	case "slo":
		cfg := bench.DefaultLoadgenConfig()
		cfg.Logf = func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) }
		rep, err := bench.RunLoadgenBench(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderLoadgen(rep))
		if rep.KneeRPS > 0 {
			fmt.Printf("  saturation knee: goodput falls below %.0f%% of offered load at %.0f rps\n",
				bench.LoadgenKneeFraction*100, rep.KneeRPS)
		} else {
			fmt.Printf("  saturation knee: not reached in this sweep\n")
		}
		verdict := "within"
		if rep.TracingOverheadPct >= bench.LoadgenOverheadTargetPct {
			verdict = "OVER"
		}
		fmt.Printf("  tracing+slo overhead on the scheduler path: %+.2f%% (%s the %.0f%% target, traced allocs/op %.0f)\n",
			rep.TracingOverheadPct, verdict, bench.LoadgenOverheadTargetPct, rep.TracedAllocsPerOp)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			if err := bench.WriteLoadgenJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	case "blocksize":
		results, best, err := bench.RunBlockSizeStudy(bench.DefaultBlockSizeStudy())
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderBlockSizeStudy(results, best))
	case "all":
		rows, err := runT2()
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableII(rows))
		fmt.Println(bench.RenderFigure4(bench.Figure4(rows)))
		ab, err := bench.RunAblation(bench.DefaultAblationConfig())
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderAblation(ab, "103x"))
		cfg := bench.QuickTableIConfig()
		if *full {
			cfg = bench.FullTableIConfig()
		}
		t1, err := bench.RunTableI(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableI(t1))
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	in := fs.String("in", "pruned.bin", "input: a pruned model file, or a bundle to lower again (a flag left unset keeps the bundle's recorded value)")
	out := fs.String("out", "model.rtmb", "output bundle path")
	targetName := fs.String("target", "gpu", "target: gpu or cpu (a bundle input keeps the target it was lowered for, and refuses another)")
	formatName := fs.String("format", "bspc", "storage format: bspc, csr, or dense")
	col := fs.Float64("col", 16, "BSP column rate the model was pruned with")
	row := fs.Float64("row", 2, "BSP row rate the model was pruned with")
	rowGroups := fs.Int("row-groups", 8, "BSP row groups")
	colBlocks := fs.Int("col-blocks", 4, "BSP column blocks")
	noReorder := fs.Bool("no-reorder", false, "disable the matrix reorder pass")
	noLoadElim := fs.Bool("no-loadelim", false, "disable redundant load elimination")
	tune := fs.Bool("autotune", false, "search the modelled target's tile (rows x cols x unroll x placement) on its analytic cost model before bundling (the verdict is cached in the bundle)")
	listing := fs.Bool("listing", false, "emit the generated kernel pseudo-code")
	quantBits := fs.Int("quant", 0, "integer weight quantization width: 8, 12, or 16 (0 = float32 weights; stored in the bundle)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	target, err := parseTarget(*targetName)
	if err != nil {
		return err
	}
	// A model file takes every flag; a bundle keeps what it records
	// wherever the flag is left unset.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	model, scheme, cfg, isBundle, err := readDeployInput(*in, target, !set["target"])
	if err != nil {
		return err
	}
	take := func(name string) bool { return !isBundle || set[name] }
	if take("format") {
		if cfg.Format, err = parseFormat(*formatName); err != nil {
			return err
		}
	}
	if take("col") {
		scheme.ColRate = *col
	}
	if take("row") {
		scheme.RowRate = *row
	}
	if take("row-groups") {
		scheme.NumRowGroups = *rowGroups
	}
	if take("col-blocks") {
		scheme.NumColBlocks = *colBlocks
	}
	if take("no-reorder") {
		cfg.DisableReorder = *noReorder
	}
	if take("no-loadelim") {
		cfg.DisableLoadElim = *noLoadElim
	}
	if take("autotune") {
		cfg.AutoTuneTiling = *tune
	}
	if take("quant") {
		cfg.Quant = *quantBits
	}
	eng, err := rtmobile.Compile(model, scheme, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eng.SaveBundle(f, scheme); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	lat := eng.Latency()
	fmt.Printf("wrote %s (%d KiB, %s, %s storage)\n",
		*out, info.Size()>>10, eng.Target().Name, eng.Plan().Options.Format)
	fmt.Printf("plan: %s\n", eng.Plan())
	printTuneRecord(eng)
	printQuantStatus(eng)
	fmt.Printf("per-frame latency: %.2f us (compute %.2f, memory %.2f, overhead %.2f)\n",
		lat.TotalUS, lat.ComputeUS, lat.MemoryUS, lat.OverheadUS)
	fmt.Printf("GOP/frame %.4f, GOP/s %.2f\n", eng.GOP(), eng.GOPs())
	fmt.Printf("energy efficiency vs ESE FPGA: %.2fx\n", eng.EfficiencyVsESE())
	fmt.Printf("real-time factor: %.1fx\n", eng.RealTimeFactor())
	if *listing {
		fmt.Println()
		fmt.Print(compiler.EmitListing(eng.Plan()))
	}
	return nil
}

// readDeployInput reads deploy's -in file: a model file (nn.Save) gives
// the model and a DeployConfig of defaults for target; a v5 bundle gives
// the dense model ReadBundle rebuilds, the recorded scheme and the recorded
// DeployConfig — for the target the bundle was lowered for when
// keepTarget, else for target, which must be that one — and isBundle.
func readDeployInput(path string, target *device.Target, keepTarget bool) (model *nn.Model, scheme prune.BSP, cfg rtmobile.DeployConfig, isBundle bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, scheme, cfg, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if magic, _ := r.Peek(4); string(magic) == "RTMB" {
		if keepTarget {
			target = nil
		}
		model, scheme, cfg, err = rtmobile.ReadBundle(r, target)
		return model, scheme, cfg, true, err
	}
	model, err = nn.Load(r)
	return model, scheme, rtmobile.DeployConfig{Target: target}, false, err
}

// printTuneRecord reports the engine's plan-cache entry, if any.
func printTuneRecord(eng *rtmobile.Engine) {
	if rec := eng.Tuned(); rec.Mode == rtmobile.TuneAnalytic {
		fmt.Printf("plan cache: analytic tuning, cost %.3f\n", rec.Cost)
	}
}

// printQuantStatus reports the engine's weight quantization, if any.
func printQuantStatus(eng *rtmobile.Engine) {
	if bits := eng.Quantized(); bits != 0 {
		fmt.Printf("quantization: int%d weights\n", bits)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := corpusFlags(fs)
	bundle := fs.String("bundle", "model.rtmb", "deployment bundle path (priced under the target it was lowered for)")
	stats := fs.Bool("stats", false, "trace the evaluation and print the per-layer latency table")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	mb, err := rtmobile.MapBundle(*bundle, nil)
	if err != nil {
		return err
	}
	defer mb.Close()
	eng, scheme := mb.Engine(), mb.Scheme()
	if in, classes := cfg.Features.Dim(), speech.NumPhones; eng.InputDim() != in || eng.OutputDim() != classes {
		return fmt.Errorf("bundle %s takes %d-dim frames and scores %d classes; the corpus has %d-dim frames and %d phone classes",
			*bundle, eng.InputDim(), eng.OutputDim(), in, classes)
	}
	eng.SetWorkers(*workers)
	if *stats {
		eng.EnableTracing()
	}
	fmt.Printf("loaded %s: scheme %s, %s, %s\n", *bundle, scheme.Name(), eng.Target().Name, eng.Plan())
	printTuneRecord(eng)
	printQuantStatus(eng)
	c, err := speech.GenerateCorpus(*cfg)
	if err != nil {
		return err
	}
	fmt.Printf("test PER %.2f%% over %d utterances\n",
		rtmobile.EvaluateEnginePER(eng, c.Test), len(c.Test))
	fmt.Printf("latency %.2f us/frame, real-time factor %.0fx\n",
		eng.Latency().TotalUS, eng.RealTimeFactor())
	if *stats {
		fmt.Println()
		fmt.Print(renderLayerStats(eng))
	}
	return nil
}

// --- helpers ------------------------------------------------------------

func toSequences(utts []speech.Utterance) []nn.Sequence {
	out := make([]nn.Sequence, len(utts))
	for i, u := range utts {
		out[i] = nn.Sequence{Frames: u.Frames, Labels: u.Labels}
	}
	return out
}

// exportWAVs re-synthesizes the first sentence of the first few speakers
// and writes them as WAV files (the corpus itself stores features, not
// audio; synthesis is deterministic so this reproduces the same waveforms).
func exportWAVs(cfg speech.CorpusConfig, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rng := tensor.NewRNG(cfg.Seed)
	spkRNG := rng.Split()
	n := 0
	for s := 0; s < cfg.NumSpeakers && n < 4; s++ {
		spk := speech.NewSpeaker(spkRNG, s)
		uttRNG := rng.Split()
		phones := speech.SampleSentence(uttRNG, cfg.PhonesPerSentence)
		wave, _ := speech.SynthUtterance(phones, spk, uttRNG)
		path := fmt.Sprintf("%s/speaker%02d_sent0.wav", dir, s)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := speech.WriteWAV(f, wave, speech.SampleRate); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%.1fs)\n", path, float64(len(wave))/speech.SampleRate)
		n++
	}
	return nil
}

func loadModel(path string) (*nn.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nn.Load(f)
}

func parseTarget(name string) (*device.Target, error) {
	switch name {
	case "gpu":
		return device.MobileGPU(), nil
	case "cpu":
		return device.MobileCPU(), nil
	default:
		return nil, fmt.Errorf("unknown target %q (want gpu or cpu)", name)
	}
}

func parseFormat(name string) (compiler.Format, error) {
	switch name {
	case "bspc":
		return compiler.FormatBSPC, nil
	case "csr":
		return compiler.FormatCSR, nil
	case "dense":
		return compiler.FormatDense, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want bspc, csr, or dense)", name)
	}
}
