// Package rtmobile is a from-scratch Go reproduction of "RTMobile: Beyond
// Real-Time Mobile Acceleration of RNNs for Speech Recognition" (Dong et
// al., DAC 2020).
//
// The implementation lives under internal/:
//
//	internal/tensor    dense linear algebra, fp16 emulation, deterministic RNG
//	internal/parallel  worker pool shared by kernels, programs, and serving
//	internal/dsp       FFT, DCT, mel filterbanks, circulant products
//	internal/speech    synthetic TIMIT substitute, MFCC front end, PER scoring
//	internal/nn        GRU with BPTT, losses, Adam
//	internal/prune     BSP + ADMM and all baseline pruning schemes
//	internal/sparse    CSR, CSC (ESE accounting), BSPC storage formats
//	internal/compiler  matrix reorder, load elimination, auto-tuning, plans
//	internal/device    mobile GPU/CPU and ESE FPGA cost models
//	internal/rtmobile  the end-to-end Prune → Compile → Infer framework
//	internal/bench     Table I / Table II / Figure 4 / ablation harness
//
// # Execution backends
//
// Each weight matrix has one lowered form: compiler.LowerMatrix lowers it
// once, straight into a packed program — flat value and column-index
// arrays, a row list and one list of segment descriptors — executed in
// order through one dot kernel per shape (internal/tensor), with zero
// allocations per pass when the caller reuses a PackedScratch. The plan the
// device models price is read off that program: the modelled target's
// thread split lives only there, as the rows of the storage order cut into
// one contiguous chunk per thread. The auto-tuner searches the tile (rows x
// cols x unroll x placement) of the modelled mobile target's kernel on the
// analytic device model, and deployment bundles persist the winning plan;
// neither the tile nor the thread count selects what the host executes,
// and host wall time is `go run ./benchmark`'s to report.
//
// The packed backend also executes batched: PackedProgram.RunBatch steps B
// input vectors through one weight stream as a column-major SpMM panel, so
// each weight value is loaded once per step for the whole batch — the
// arithmetic-intensity win batched serving rides on. nn.BatchStream and
// the engine's leases lift this through the model stack for the serving
// scheduler (internal/sched): requests share a lockstep panel with per-lane
// retirement for ragged lengths, and every lane's output stays
// bit-identical to a solo run (lanes never mix, so batch width changes
// layout, not summation order). Engine.InferBatch opens no panel: a ragged
// batch's panel keeps computing for utterances that have ended, and each
// utterance on its own width-1 session scored every measured model size
// faster per frame.
// There is one stepper family and one session type: a vector is a
// column-major panel of width 1, so the live single stream (nn.Stream,
// rtmobile.Stream) is the width-1 panel behind a vector-shaped face, not
// a second implementation. On amd64 with AVX2 the panel kernels run in assembly, vectorized
// across lanes with separate multiply and add (never FMA) so the bytes
// match the portable path; -tags=purego restores pure Go.
//
// There is one packed program type and one executor. A PackedProgram's
// values are float32 and its kernel tier (exact, fast) is resolved once,
// when the program is built, into the segment kernels its run loops call;
// nothing is selected per execution. A program is one segment list — a
// lane-parallel executor over the compiler's thread chunks existed, never
// beat the serial one at any measured width or worker count, and was
// deleted (DESIGN.md records the numbers). Parallelism lives one level up:
// InferBatchInto shards whole utterances across the pool once a batch
// carries enough arithmetic per worker to pay for the fork-join.
//
// The packed programs are what a deployed Engine serves from: every entry
// point (Stream.Step/StepInto, Infer, BatchLease.Step, InferBatchInto, and
// through leases the scheduler and the HTTP tier) runs
// nn's steppers — which own the GRU/Dense step order — bound to the
// weight matrices' compiled programs through their accumulate entries
// (RunBatchAdd; RunAdd is its width 1), on either tier and whatever the
// storage width; there is no dense path beside it. Model.NewStream/NewBatchStream
// bind tensor.MatVecAddBatch instead and stay the training-side reference.
// The dense-order contract makes the two comparable bit for bit: the BSPC
// lowering emits one segment per row group whose dots span the group's kept
// columns in ascending order, so a row is one float64 chain rounded once —
// packed Run and tensor.MatVecAdd on the projected matrix agree exactly for
// finite inputs (a pruned weight times a
// non-finite input is 0·Inf = NaN in the dense reference and skipped by the
// program). Compile lowers once, and the programs are the deployment: the
// engine keeps them with the biases and nothing else, the v5 bundle stores
// exactly that, and MapBundle runs the programs in place, as written.
// Lowering happens in one place, `rtmobile deploy`, and a bundle names the
// target it was lowered for (its plan's value width and thread count), so
// `run` and `serve` take no target: MapBundle prices the engine as the file
// says. `rtmobile deploy -in` reads a bundle back (ReadBundle: the
// programs' PackedProgram.Dense plus the recorded DeployConfig and target)
// and lowers it once more — the way to change a deployed bundle's width,
// tier or passes. Both readers take only the v5 files an engine runs as
// written; a v1–v4 file, or a v5 file whose programs or plan are not an
// engine's, is refused with the reason and the commit whose `deploy -in`
// upgrades it. A v5 file written while programs were stored in one lane per
// modelled thread is read into the one segment list and runs bit-equal.
// Nothing holds the dense weights after Compile.
//
// Quantization is a storage format, not a kernel family: the lowering
// (compiler.Options.QuantBits) rounds a program's values to int8 (8-bit) or int16
// (12/16-bit) codes with per-row float32 scales and keeps each weight as
// its dequantized float32 value, so a quantized program runs the float32
// kernels and a quantized engine is bit-identical to nn.Forward over its
// dequantized model. The codes are what a bundle stores (a quarter or half
// the bytes) and what the Table II footprint prices; the program re-derives
// them exactly when it is saved. DeployConfig.Quant (the -quant flag of
// deploy) selects the width at deploy: bundles persist the
// codes and scales, and serving runs the width a bundle records.
//
// # Concurrency and the ownership rule
//
// The runtime is parallel but deterministic. Dense training kernels chunk
// large loops over a worker pool (internal/parallel), and Engine.InferBatch
// scores independent utterances concurrently on the same pool. Every parallel path is
// bit-identical to its serial counterpart: work is partitioned so each
// output element is produced by exactly one worker in the serial float op
// order, so results never depend on worker count or scheduling. Pool size
// comes from Engine.SetWorkers / the -workers CLI flag, falling back to
// the RTMOBILE_WORKERS environment variable, then runtime.NumCPU().
//
// The ownership rule that makes shared use safe: an Engine holds its own
// copies of what it serves — biases, compiled plan and programs, rounded
// once inside Compile — and no reference to the caller's model, so they
// are immutable after Compile; every inference entry point — Infer,
// InferBatch, NewStream — allocates its own mutable state. One Engine may therefore serve any number of
// goroutines concurrently. The exception is training: Model.Forward and
// Model.Train write BPTT caches onto the layer structs and must own the
// model exclusively.
//
// See README.md for a user guide, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// top-level bench_test.go regenerates every table and figure:
//
//	go test -bench=. -benchmem
package rtmobile
