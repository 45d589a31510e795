package compiler

import (
	"fmt"
	"runtime"

	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// Parallel program execution — the runtime realization of the per-thread
// kernel programs the compiler load-balances (§IV-B). Each Program thread
// lane runs on its own worker; because every lowering assigns each output
// row to exactly one lane (lowerDense/lowerCSR chunk rows, lowerBSPC routes
// every block-row dot to the row's owning thread), lanes write disjoint row
// sets and the merge below is bit-exact: ExecuteParallel produces exactly
// the bytes Execute produces, at any worker count, along with identical
// ExecStats.

// ParallelBreakEvenMACs is the fork-join break-even cutoff: below this many
// multiply-accumulates per worker, handing lanes to the pool costs more than
// the arithmetic saves, so RunParallel/ExecuteParallel fall back to the
// serial kernel (which is bit-identical anyway). The BENCH_2 study measured
// the regression this guards against: on the ~98K-MAC single-stream packed
// workload every worker count was slower than serial. The default is sized
// so single-stream per-step matvecs stay serial while batched panels (whose
// work scales with B) can still fan out. 0 disables the cutoff — the
// equivalence suites use that to force the parallel merge path under test.
// A machine without a second CPU never forks regardless of the threshold.
var ParallelBreakEvenMACs = 1 << 18

// ParallelWorthwhile reports whether `work` MACs spread over `workers`
// clears the fork-join break-even. The engine's batch entry point applies
// the same test before sharding panel groups across its pool.
func ParallelWorthwhile(work, workers int) bool {
	if ParallelBreakEvenMACs <= 0 {
		return true
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	if workers < 1 {
		workers = 1
	}
	return work/workers >= ParallelBreakEvenMACs
}

// ExecuteParallel runs the program on x with its thread lanes distributed
// over the pool, writing y (len Rows). Results and statistics are
// bit-identical to Execute. A nil pool uses parallel.Default(); a 1-worker
// pool, a 1-lane program, or per-worker work below ParallelBreakEvenMACs
// falls back to the serial executor.
func (p *Program) ExecuteParallel(y, x []float32, pool *parallel.Pool) (ExecStats, error) {
	if pool == nil {
		pool = parallel.Default()
	}
	if pool.Workers() < 2 || len(p.Threads) < 2 ||
		!ParallelWorthwhile(p.totalMACs(), min(pool.Workers(), len(p.Threads))) {
		return p.Execute(y, x)
	}
	if len(x) != p.Cols || len(y) != p.Rows {
		return ExecStats{}, fmt.Errorf("compiler: Execute shape mismatch")
	}

	lanes := len(p.Threads)
	partials := make([][]float32, lanes)
	counts := make([]laneCounts, lanes)
	errs := make([]error, lanes)
	pool.For(lanes, func(t int) {
		// Private accumulator and gather buffer per lane: no shared writes
		// during execution, and the same float op order as the serial path
		// (each lane's rows start from zero there too).
		yt := make([]float32, p.Rows)
		xbuf := make([]float32, 0, p.Cols)
		counts[t], errs[t] = runLane(p.Threads[t], yt, x, xbuf)
		partials[t] = yt
	})
	for _, err := range errs {
		if err != nil {
			return ExecStats{}, err
		}
	}

	// Deterministic merge in lane index order. With the one-lane-per-row
	// invariant each y[r] receives at most one nonzero contribution, so
	// the merge adds each serial result to zero — bit-exact.
	tensor.ZeroVec(y)
	stats := ExecStats{ThreadMACs: make([]int, lanes)}
	for t := 0; t < lanes; t++ {
		for r, v := range partials[t] {
			if v != 0 {
				y[r] += v
			}
		}
		stats.GatherLoads += counts[t].gathers
		stats.StreamedVals += counts[t].streamed
		stats.ThreadMACs[t] = counts[t].macs
	}
	return stats, nil
}
