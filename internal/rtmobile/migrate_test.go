package rtmobile

import (
	"fmt"
	"math"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
)

// Lane migration: the serve scheduler moves a live utterance between a
// width-1 and a width-MaxBatch lease mid-flight (BatchLease.CopyLaneTo).
// The state is copied bit for bit, and on the exact tier a batch lane is
// bit-identical to the width-1 stream at any width, so a moved utterance must
// score exactly as one that never moved. The fast tier's batch kernels
// round in an order that depends on the panel width (its contract is a
// tolerance, not bits), so there the copy is held to bits where the widths
// match and the 1 → 8 → 1 trip to the tier's tolerance.

// hopRows scores frames in one lane of a lease that starts at width start,
// hopping before frame t to a fresh lease of width hops[t] where that is
// set — into a different lane, of a lease whose every lane was first
// stepped on junk so stale state cannot hide.
func hopRows(e *Engine, frames [][]float32, start int, hops map[int]int) [][]float32 {
	lease, lane := e.AcquireBatch(start), 0
	rows := make([][]float32, len(frames))
	for t, f := range frames {
		if w := hops[t]; w != 0 {
			next := e.AcquireBatch(w)
			junk := next.In()
			for i := range junk {
				junk[i] = float32(i%5) - 2
			}
			next.Step()
			for l := 0; l < w; l++ {
				next.Retire(l)
			}
			nl := (lane + 3) % w
			lease.CopyLaneTo(next, nl, lane)
			lease.Release()
			lease, lane = next, nl
		}
		in, bw := lease.In(), lease.Width()
		for i, v := range f {
			in[i*bw+lane] = v
		}
		lease.Step()
		rows[t] = make([]float32, e.OutputDim())
		for i := range rows[t] {
			rows[t][i] = lease.Out()[i*bw+lane]
		}
	}
	lease.Release()
	return rows
}

func TestBatchLeaseMigration(t *testing.T) {
	const T = 7
	for _, quant := range []int{0, 8, 16} {
		model := nn.NewModel(nn.ModelSpec{
			InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: 91,
		})
		res := Prune(model, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
		exact, err := Compile(model, res.Scheme, DeployConfig{Target: device.MobileCPU(), Quant: quant})
		if err != nil {
			t.Fatal(err)
		}
		// The fast twin shares the weights Compile rounded in place.
		fast, err := Compile(model.Clone(), res.Scheme, DeployConfig{
			Target: device.MobileCPU(), Quant: quant, Precision: compiler.PrecisionFast,
		})
		if err != nil {
			t.Fatal(err)
		}
		frames := testFrames(uint64(500+quant), T, 8)
		want := exact.Infer(frames)
		label := fmt.Sprintf("q%d", quant)

		// Exact tier: in place at width 1 ≡ serial Infer, and a trip
		// 1 → 8 → 1 around every frame index changes nothing.
		samePosteriors(t, hopRows(exact, frames, 1, nil), want, label+" exact in place vs Infer")
		for k := 1; k < T; k++ {
			trip := map[int]int{k: 8, k + 1: 1}
			samePosteriors(t, hopRows(exact, frames, 1, trip), want, fmt.Sprintf("%s exact moved at frame %d", label, k))
		}

		// Fast tier: the copy itself is exact — hopping between leases
		// of one width, at either width, matches staying put — and the
		// width-changing trip stays inside the tier's tolerance.
		for _, w := range []int{1, 8} {
			still := hopRows(fast, frames, w, nil)
			for k := 1; k < T; k++ {
				samePosteriors(t, hopRows(fast, frames, w, map[int]int{k: w}), still,
					fmt.Sprintf("%s fast width %d re-leased at frame %d", label, w, k))
			}
		}
		for k := 1; k < T; k++ {
			got := hopRows(fast, frames, 1, map[int]int{k: 8, k + 1: 1})
			for f := range want {
				for j := range want[f] {
					if d := math.Abs(float64(got[f][j] - want[f][j])); d > 1e-3 {
						t.Fatalf("%s fast moved at frame %d: frame %d phone %d: %v vs exact %v (|Δ|=%g)",
							label, k, f, j, got[f][j], want[f][j], d)
					}
				}
			}
		}
	}
}

// TestBatchLeaseMigrationZeroAlloc: with both shapes warm in the arena
// free list, a grow-and-shrink cycle allocates nothing.
func TestBatchLeaseMigrationZeroAlloc(t *testing.T) {
	eng := parallelTestEngine(t, 47, false, 1)
	narrow := eng.AcquireBatch(1)
	eng.AcquireBatch(8).Release()
	cycle := func() {
		wide := eng.AcquireBatch(8)
		narrow.CopyLaneTo(wide, 0, 0)
		narrow.Release()
		wide.Step()
		narrow = eng.AcquireBatch(1)
		wide.CopyLaneTo(narrow, 0, 0)
		wide.Release()
		narrow.Step()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a grow-and-shrink cycle allocates %v times, want 0", allocs)
	}
}
