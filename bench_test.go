package rtmobile_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus ablations and kernel micro-benchmarks. Run all:
//
//	go test -bench=. -benchmem
//
// The table benchmarks print their rendered tables once (first iteration)
// so a bench run doubles as an experiment log; EXPERIMENTS.md records the
// reference output.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rtmobile/internal/bench"
	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/dsp"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/registry"
	"rtmobile/internal/rtmobile"
	"rtmobile/internal/sched"
	"rtmobile/internal/sparse"
	"rtmobile/internal/speech"
	"rtmobile/internal/tensor"
)

var printOnce sync.Map

func printFirst(b *testing.B, key, out string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(out)
	}
}

// BenchmarkTableII regenerates Table II: per-frame latency, GOP/s and
// ESE-normalized energy efficiency on the mobile GPU and CPU models at the
// paper's ten compression points, with the full 9.6M-parameter GRU.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableII(bench.TableIIConfig{})
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table2", bench.RenderTableII(rows))
	}
}

// BenchmarkFigure4 regenerates Figure 4: speedup over the dense baselines
// as a function of compression rate.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableII(bench.TableIIConfig{})
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "fig4", bench.RenderFigure4(bench.Figure4(rows)))
	}
}

// BenchmarkTableI regenerates Table I at quick scale (the full-scale run is
// `rtmobile bench -exp table1 -full`; pure-Go training of the full sweep
// takes minutes and is recorded in EXPERIMENTS.md).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableI(bench.QuickTableIConfig())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "table1", bench.RenderTableI(rows))
	}
}

// BenchmarkAblation measures each compiler pass's contribution at the 103×
// operating point (full-scale model).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAblation(bench.DefaultAblationConfig())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "ablation", bench.RenderAblation(rows, "103x"))
	}
}

// BenchmarkBlockSizeStudy runs the Section IV-B auto-tuning sweep on a
// paper-scale gate matrix.
func BenchmarkBlockSizeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, best, err := bench.RunBlockSizeStudy(bench.DefaultBlockSizeStudy())
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "blocksize", bench.RenderBlockSizeStudy(results, best))
	}
}

// --- kernel micro-benchmarks -------------------------------------------

func prunedMatrix(rows, cols int, scheme prune.BSP) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.RandNormal(tensor.NewRNG(42), 1)
	return scheme.Project(m)
}

var benchScheme = prune.BSP{ColRate: 16, RowRate: 2, NumRowGroups: 16, NumColBlocks: 8}

// BenchmarkSpMVDense is the dense GEMV reference on a GRU-sized matrix.
func BenchmarkSpMVDense(b *testing.B) {
	m := tensor.NewMatrix(3072, 1024)
	m.RandNormal(tensor.NewRNG(1), 1)
	x := make([]float32, 1024)
	y := make([]float32, 3072)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVec(y, m, x)
	}
}

// BenchmarkSpMVCSR measures CSR SpMV on the 29×-pruned matrix.
func BenchmarkSpMVCSR(b *testing.B) {
	csr := sparse.NewCSR(prunedMatrix(3072, 1024, benchScheme))
	x := make([]float32, 1024)
	y := make([]float32, 3072)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MatVec(y, x)
	}
}

// BenchmarkSpMVBSPC measures BSPC SpMV (block-shared gathers) on the same
// pruned matrix.
func BenchmarkSpMVBSPC(b *testing.B) {
	bspc := sparse.NewBSPC(prunedMatrix(3072, 1024, benchScheme), benchScheme)
	x := make([]float32, 1024)
	y := make([]float32, 3072)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bspc.MatVec(y, x)
	}
}

// BenchmarkBSPProjection measures the BSP Z-update projection on a
// GRU-layer matrix (the inner loop of ADMM training).
func BenchmarkBSPProjection(b *testing.B) {
	m := tensor.NewMatrix(3072, 1024)
	m.RandNormal(tensor.NewRNG(2), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScheme.Project(m)
	}
}

// BenchmarkMatrixReorder measures the compiler's reorder pass.
func BenchmarkMatrixReorder(b *testing.B) {
	m := prunedMatrix(3072, 1024, benchScheme)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiler.Reorder(m)
	}
}

// BenchmarkCompilePlan measures full plan compilation (all passes) of the
// paper-scale model for the GPU target: plain, with the analytic tiling
// search (which re-prices the one lowered plan per candidate), and with q8
// storage (whose plan is counted off the quantized programs).
func BenchmarkCompilePlan(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  rtmobile.DeployConfig
	}{
		{"plain", rtmobile.DeployConfig{Target: device.MobileGPU()}},
		{"autotune", rtmobile.DeployConfig{Target: device.MobileGPU(), AutoTuneTiling: true}},
		{"q8", rtmobile.DeployConfig{Target: device.MobileGPU(), Quant: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			model := nn.NewGRUModel(nn.PaperGRUSpec())
			res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
			for i := 0; i < b.N; i++ {
				if _, err := rtmobile.Compile(model, res.Scheme, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGRUForward measures functional GRU inference (one 100-frame
// utterance through a 2×256 model).
func BenchmarkGRUForward(b *testing.B) {
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 256, NumLayers: 2, OutputDim: 39, Seed: 1})
	rng := tensor.NewRNG(3)
	frames := make([][]float32, 100)
	for t := range frames {
		row := make([]float32, 39)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		frames[t] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(frames)
	}
}

// BenchmarkMFCC measures the speech front end on one second of audio.
func BenchmarkMFCC(b *testing.B) {
	ext := speech.NewExtractor(speech.DefaultFeatureConfig())
	rng := tensor.NewRNG(4)
	wave := make([]float64, speech.SampleRate)
	for i := range wave {
		wave[i] = rng.NormFloat64() * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Features(wave)
	}
}

// BenchmarkFFT1024 measures the FFT kernel the MFCC front end and the
// circulant baselines share.
func BenchmarkFFT1024(b *testing.B) {
	rng := tensor.NewRNG(5)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		dsp.FFT(buf)
	}
}

// BenchmarkCirculantMul compares the C-LSTM FFT-based block product
// against the direct product at block size 64.
func BenchmarkCirculantMul(b *testing.B) {
	rng := tensor.NewRNG(6)
	c := make([]float64, 64)
	x := make([]float64, 64)
	for i := range c {
		c[i] = rng.NormFloat64()
		x[i] = rng.NormFloat64()
	}
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dsp.CirculantMulFFT(c, x)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dsp.CirculantMulDirect(c, x)
		}
	})
}

// BenchmarkDeviceLatency measures the analytical cost model itself (it
// runs inside the auto-tuner's search loop, so its speed matters).
func BenchmarkDeviceLatency(b *testing.B) {
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 256, NumLayers: 2, OutputDim: 39, Seed: 7})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		b.Fatal(err)
	}
	gpu := device.MobileGPU()
	plan := eng.Plan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu.Latency(plan)
	}
}

// BenchmarkProgramExec is the packed executor on the Table-I-sized GRU
// recurrent projection (3072×1024, BSP 16×/2×), serial.
func BenchmarkProgramExec(b *testing.B) {
	pp, x, err := bench.BuildSweepProgram(bench.DefaultWorkerSweepConfig(), compiler.PrecisionExact)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float32, pp.Rows)
	scratch := pp.NewScratch()
	b.Run("packed/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pp.Run(y, x, scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamStep measures the zero-allocation streaming path: one
// frame through a deployed engine's Stream.StepInto (steady state).
func BenchmarkStreamStep(b *testing.B) {
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 128, NumLayers: 2, OutputDim: 39, Seed: 11})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		b.Fatal(err)
	}
	s := eng.NewStream()
	rng := tensor.NewRNG(12)
	frame := make([]float32, 39)
	for j := range frame {
		frame[j] = float32(rng.NormFloat64())
	}
	dst := make([]float32, 39)
	s.StepInto(dst, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepInto(dst, frame)
	}
}

// BenchmarkRunBatch measures the batched packed executor on the
// Table-I-sized GRU recurrent projection at several lockstep panel widths.
// ns/op grows with B, but MACs/s (each lane's work is real) should grow
// past packed/serial as the weight stream amortizes over the panel.
func BenchmarkRunBatch(b *testing.B) {
	pp, x, err := bench.BuildSweepProgram(bench.DefaultWorkerSweepConfig(), compiler.PrecisionExact)
	if err != nil {
		b.Fatal(err)
	}
	scratch := pp.NewScratch()
	for _, bw := range []int{1, 2, 4, 8, 16, 32} {
		xp := make([]float32, pp.Cols*bw)
		for l := 0; l < bw; l++ {
			for i, v := range x {
				xp[i*bw+l] = v
			}
		}
		yp := make([]float32, pp.Rows*bw)
		b.Run(fmt.Sprintf("B=%d", bw), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pp.RunBatch(yp, xp, bw, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferBatch measures end-to-end batched serving through the
// lockstep engine path (InferBatchInto, steady state: arenas and output
// buffers reused, zero allocations per call at one worker).
func BenchmarkInferBatch(b *testing.B) {
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 128, NumLayers: 2, OutputDim: 39, Seed: 15})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
	rng := tensor.NewRNG(16)
	for _, n := range []int{1, 4, 8} {
		batch := make([][][]float32, n)
		for i := range batch {
			utt := make([][]float32, 20)
			for t := range utt {
				f := make([]float32, 39)
				for j := range f {
					f[j] = float32(rng.NormFloat64())
				}
				utt[t] = f
			}
			batch[i] = utt
		}
		b.Run(fmt.Sprintf("utts=%d", n), func(b *testing.B) {
			eng, err := rtmobile.Compile(model.Clone(), res.Scheme,
				rtmobile.DeployConfig{Target: device.MobileGPU()})
			if err != nil {
				b.Fatal(err)
			}
			eng.SetWorkers(1)
			dst := eng.InferBatch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.InferBatchInto(dst, batch)
			}
		})
	}
}

// BenchmarkInferBatchWorkers measures utterance-level serving throughput:
// a fixed batch of utterances scored by Engine.InferBatch at several pool
// sizes.
func BenchmarkInferBatchWorkers(b *testing.B) {
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: 128, NumLayers: 2, OutputDim: 39, Seed: 7})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: 16, RowRate: 2})
	rng := tensor.NewRNG(9)
	batch := make([][][]float32, 8)
	for i := range batch {
		utt := make([][]float32, 20)
		for t := range utt {
			f := make([]float32, 39)
			for j := range f {
				f[j] = float32(rng.NormFloat64())
			}
			utt[t] = f
		}
		batch[i] = utt
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := rtmobile.Compile(model.Clone(), res.Scheme,
				rtmobile.DeployConfig{Target: device.MobileGPU()})
			if err != nil {
				b.Fatal(err)
			}
			eng.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.InferBatch(batch)
			}
		})
	}
}

// schedBenchEngine is the benchmark's GRU (2×512 at BSP 10×) on one worker,
// with the longest utterance the scheduler benchmarks submit.
func schedBenchEngine(b *testing.B) (*rtmobile.Engine, [][]float32) {
	b.Helper()
	return panelBenchEngine(b, 512, 10, 1)
}

// panelBenchEngine is a 2-layer f32 GRU of the given width at BSP
// col × row on one worker, with schedBenchEngine's utterance.
func panelBenchEngine(b *testing.B, hidden int, col, row float64) (*rtmobile.Engine, [][]float32) {
	b.Helper()
	model := nn.NewGRUModel(nn.ModelSpec{InputDim: 39, Hidden: hidden, NumLayers: 2, OutputDim: 39, Seed: 21})
	res := rtmobile.Prune(model, nil, rtmobile.PruneConfig{ColRate: col, RowRate: row})
	eng, err := rtmobile.Compile(model, res.Scheme, rtmobile.DeployConfig{Target: device.MobileCPU()})
	if err != nil {
		b.Fatal(err)
	}
	eng.SetWorkers(1)
	rng := tensor.NewRNG(22)
	longest := make([][]float32, 59)
	for t := range longest {
		longest[t] = make([]float32, 39)
		for j := range longest[t] {
			longest[t][j] = float32(rng.NormFloat64())
		}
	}
	return eng, longest
}

// benchStreamStep times Stream.StepInto, reporting µs per lane.
func benchStreamStep(b *testing.B, eng *rtmobile.Engine, frame []float32) {
	s, dst := eng.NewStream(), make([]float32, eng.OutputDim())
	s.StepInto(dst, frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepInto(dst, frame)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/lane")
}

// benchPanelStep times BatchLease.Step at width w, reporting µs per lane.
func benchPanelStep(b *testing.B, eng *rtmobile.Engine, w int, frames [][]float32) {
	lease := eng.AcquireBatch(w)
	defer lease.Release()
	in := lease.In()
	for l := 0; l < w; l++ {
		for i, v := range frames[l] {
			in[i*w+l] = v
		}
	}
	lease.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*w), "us/lane")
}

// BenchmarkPanelStepWidth is the width probe behind the scheduler's two
// panel shapes: the cost of one BatchLease.Step at each width 1…8 on the
// scheduler benchmark's model. Only 1 and 8 are worth having — the widths
// between run the portable panel kernel: 2–6 cost more per lane than
// stepping the lanes one after another, and 7 costs 1.8× the eight-wide
// step (DESIGN.md has the table). The "stream" row is Stream.StepInto on the
// same model: the same session as w=1 behind its other face, so the two must
// read alike. The h=…/rate=… rows are the weight-footprint sweep behind
// ROADMAP item 3 — stream against w=8 on 2×512 and 2×1024 GRUs at BSP 1×,
// 10× and 245× — in µs per lane. They are f32 only: a quantized program runs
// the same float32 kernels, so storage width cannot move them.
func BenchmarkPanelStepWidth(b *testing.B) {
	eng, longest := schedBenchEngine(b)
	b.Run("stream", func(b *testing.B) { benchStreamStep(b, eng, longest[0]) })
	for w := 1; w <= 8; w++ {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchPanelStep(b, eng, w, longest) })
	}
	footprintSweep(b, func(b *testing.B, eng *rtmobile.Engine, frames [][]float32) {
		b.Run("stream", func(b *testing.B) { benchStreamStep(b, eng, frames[0]) })
		b.Run("w=8", func(b *testing.B) { benchPanelStep(b, eng, 8, frames) })
	})
}

// footprintSweep runs fn as h=…/rate=… sub-benchmarks on panelBenchEngine's
// 2×512 and 2×1024 GRUs at BSP 1×, 10× and 245× — the weight-footprint
// sweep from well above L2 to well inside it.
func footprintSweep(b *testing.B, fn func(*testing.B, *rtmobile.Engine, [][]float32)) {
	for _, hidden := range []int{512, 1024} {
		b.Run(fmt.Sprintf("h=%d", hidden), func(b *testing.B) {
			for _, rate := range []struct {
				name     string
				col, row float64
			}{{"1x", 1, 1}, {"10x", 10, 1}, {"245x", 20, 12.25}} {
				b.Run("rate="+rate.name, func(b *testing.B) {
					eng, frames := panelBenchEngine(b, hidden, rate.col, rate.row)
					fn(b, eng, frames)
				})
			}
		})
	}
}

// BenchmarkInferBatchRagged is batch_offline's op on the weight-footprint
// sweep: one InferBatchInto over eight utterances of 16…48 frames (the
// benchmark's eight lengths, 253 frames) on one worker, in µs per frame
// scored.
func BenchmarkInferBatchRagged(b *testing.B) {
	footprintSweep(b, func(b *testing.B, eng *rtmobile.Engine, _ [][]float32) {
		rng := tensor.NewRNG(24)
		batch, frames := make([][][]float32, 8), 0
		for i, n := range []int{34, 16, 48, 25, 43, 20, 38, 29} {
			batch[i] = make([][]float32, n)
			for t := range batch[i] {
				batch[i][t] = make([]float32, eng.InputDim())
				for j := range batch[i][t] {
					batch[i][t][j] = float32(rng.NormFloat64())
				}
			}
			frames += n
		}
		dst := eng.InferBatch(batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InferBatchInto(dst, batch)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*frames), "us/frame")
	})
}

// BenchmarkSegKernel times the exact float32 serial segment kernels on the
// segment shapes the packed programs are made of — 96×48 is every segment of
// the 10× benchmark model, 96×8 a narrow gather, 11×24 a 245×-sized one where
// only one group of eight is vector work — as ns per multiply-accumulate.
// "pair" is the portable specification (DotPairF64 + DotF64, all a build
// without AVX2 runs); "seg8" is what f32Kernels runs: the eight-row
// across-rows driver first, the pair kernel on the remainder.
func BenchmarkSegKernel(b *testing.B) {
	for _, sh := range []struct{ nr, nc int }{{96, 48}, {96, 8}, {11, 24}} {
		rng := tensor.NewRNG(20)
		vals, g := make([]float32, sh.nr*sh.nc), make([]float32, sh.nc)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		rows, y := make([]int32, sh.nr), make([]float32, sh.nr)
		for k := range rows {
			rows[k] = int32(k)
		}
		pairFrom := func(ri int) {
			nc := sh.nc
			for ; ri+2 <= sh.nr; ri += 2 {
				s0, s1 := tensor.DotPairF64(vals[ri*nc:ri*nc+nc], vals[(ri+1)*nc:(ri+1)*nc+nc], g)
				y[rows[ri]] += float32(s0)
				y[rows[ri+1]] += float32(s1)
			}
			if ri < sh.nr {
				y[rows[ri]] += float32(tensor.DotF64(vals[ri*nc:ri*nc+nc], g))
			}
		}
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"pair", func() { pairFrom(0) }},
			{"seg8", func() { pairFrom(tensor.DotSegF64(vals, rows, g, y)) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%d", k.name, sh.nr, sh.nc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(y)
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.nr*sh.nc), "ns/MAC")
			})
		}
	}
}

// BenchmarkSchedClosedLoop is the load evidence `go run ./benchmark` cannot
// give (its serve workload is open-loop at a rate far below saturation): N
// closed-loop clients, each submitting its next ragged 20–59-frame
// utterance the moment the previous one returns, through one scheduler
// over schedBenchEngine. One op is one request; frames/s is the goodput
// EXPERIMENTS.md tabulates per client count.
func BenchmarkSchedClosedLoop(b *testing.B) {
	eng, longest := schedBenchEngine(b)
	for _, clients := range []int{1, 2, 8, 16, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			reg, err := registry.New(registry.Config{
				Loader: func(string) (registry.Instance, error) { return registry.Instance{Engine: eng}, nil },
				Sched:  sched.Config{MaxBatch: 8, QueueDepth: 64},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close(context.Background())
			if err := reg.Register("default", "mem://engine"); err != nil {
				b.Fatal(err)
			}
			lease, err := reg.Acquire("default")
			if err != nil {
				b.Fatal(err)
			}
			defer lease.Release()
			sch := lease.Scheduler()

			var next, frames atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					dst := make([][]float32, 59)
					for t := range dst {
						dst[t] = make([]float32, 39)
					}
					for {
						k := next.Add(1)
						if k > int64(b.N) {
							return
						}
						T := 20 + int(k*37+int64(c)*11)%40
						if err := sch.InferInto(context.Background(), dst[:T], longest[:T]); err != nil {
							b.Error(err)
							return
						}
						frames.Add(int64(T))
					}
				}(c)
			}
			wg.Wait()
			b.ReportMetric(float64(frames.Load())/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
