package rtmobile

import (
	"testing"

	"rtmobile/internal/device"
)

// TestBatchLeaseMatchesStream: driving lanes through the lease the way the
// scheduler does — a mid-flight retire, then lane reuse by a fresh utterance
// — yields byte-for-byte what nn.Posteriors(model.Forward) and a width-1
// Stream produce for each utterance: the contract the serve scheduler's
// bit-identical response guarantee rests on.
func TestBatchLeaseMatchesStream(t *testing.T) {
	checkLeaseLanes(t, "lease", parallelTestEngine(t, 61, false, 1), 3, diffTiers[0], true)
}

// TestBatchLeaseReuse: Release returns the lease to the engine arena, so
// reacquiring the same width hands back the same backing buffers.
func TestBatchLeaseReuse(t *testing.T) {
	eng := parallelTestEngine(t, 62, false, 1)
	l1 := eng.AcquireBatch(2)
	in1 := &l1.In()[0]
	l1.Release()
	l2 := eng.AcquireBatch(2)
	defer l2.Release()
	if &l2.In()[0] != in1 {
		t.Fatal("reacquired lease does not reuse the arena buffers")
	}
}

// TestBatchLeaseZeroAlloc: once the arena is warm, a full
// acquire → reset → step → release cycle costs zero heap allocations —
// the engine-side half of the serve scheduler's steady-state 0 allocs/op
// guarantee.
func TestBatchLeaseZeroAlloc(t *testing.T) {
	const bw = 2
	eng := allocEngine(t, device.MobileCPU())
	frame := testFrames(63, 1, eng.InputDim())[0]
	cycle := func() {
		l := eng.AcquireBatch(bw)
		in := l.In()
		for lane := 0; lane < bw; lane++ {
			l.ResetLane(lane)
			for i, v := range frame {
				in[i*bw+lane] = v
			}
		}
		l.Step()
		l.Retire(0)
		l.Retire(1)
		l.Release()
	}
	cycle() // warm the arena
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm lease cycle allocates %v times, want 0", allocs)
	}
}
