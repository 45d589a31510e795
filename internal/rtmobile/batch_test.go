package rtmobile

import (
	"fmt"
	"strings"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/tensor"
)

// checkLeaseLanes drives a width-bw lease for T steps, re-seating one lane
// with a fresh utterance mid-flight (retiring it first when retire is set —
// the scheduler's hand-over — or with a bare ResetLane), and holds every
// lane of every step to two references, bit for bit:
// nn.Posteriors(model.Forward) on the lane's utterance, which shares no
// stepping code, and a width-1 Stream fed the same frames.
func checkLeaseLanes(t *testing.T, label string, e *Engine, bw int, retire bool) {
	t.Helper()
	const T = 8
	in, out := e.InputDim(), e.OutputDim()
	forward := func(frames [][]float32) [][]float32 {
		if e.fp16 { // the engine rounds activations at the model boundary
			q := make([][]float32, len(frames))
			for i, f := range frames {
				q[i] = tensor.CloneVec(f)
				tensor.QuantizeHalfVec(q[i])
			}
			frames = q
		}
		return nn.Posteriors(e.denseModel().Forward(frames))
	}
	l := e.AcquireBatch(bw)
	defer l.Release()
	if l.Width() != bw {
		t.Fatalf("%s: lease width %d, want %d", label, l.Width(), bw)
	}
	solo := make([]*Stream, bw)
	utts, want, start := make([][][]float32, bw), make([][][]float32, bw), make([]int, bw)
	for k := range solo {
		solo[k] = e.NewStream()
		utts[k] = testFrames(100+uint64(k), T, in)
		want[k] = forward(utts[k])
	}
	victim, one := bw/2, make([]float32, out)
	for step := 0; step < T; step++ {
		if step == T/2 {
			if retire {
				l.Retire(victim)
			}
			l.ResetLane(victim)
			solo[victim].Reset()
			utts[victim], start[victim] = testFrames(300, T, in), step
			want[victim] = forward(utts[victim])
		}
		for k := 0; k < bw; k++ {
			for i, v := range utts[k][step-start[k]] {
				l.In()[i*bw+k] = v
			}
		}
		l.Step()
		for k := 0; k < bw; k++ {
			pos := step - start[k]
			solo[k].StepInto(one, utts[k][pos])
			for i := 0; i < out; i++ {
				got := l.Out()[i*bw+k]
				if got != want[k][pos][i] {
					t.Fatalf("%s bw=%d step %d lane %d elem %d: lease %v vs Forward %v",
						label, bw, step, k, i, got, want[k][pos][i])
				}
				if got != one[i] {
					t.Fatalf("%s bw=%d step %d lane %d elem %d: lease %v vs width-1 stream %v",
						label, bw, step, k, i, got, one[i])
				}
			}
		}
	}
}

// TestBatchStreamMatchesStream is the lane table: every width class (the
// live stream, narrow portable panels, one vector chunk, chunk + remainder,
// the widest) × storage width, plus the fp16 (GPU) activation path,
// with a mid-utterance lane reset.
func TestBatchStreamMatchesStream(t *testing.T) {
	for _, st := range diffStorages {
		for g, target := range []*device.Target{device.MobileCPU(), device.MobileGPU()} {
			if g == 1 && st.quant != 0 {
				continue // fp16 staging is width-independent: one row covers it
			}
			model := nn.NewModel(nn.ModelSpec{
				InputDim: 8, Hidden: 32, NumLayers: 2, OutputDim: 6, Seed: 41,
			})
			res := Prune(model, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
			eng, err := Compile(model, res.Scheme, DeployConfig{Target: target, Quant: st.quant})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/%s", st.name, target.Name)
			for _, bw := range []int{1, 2, 7, 8, 9, 32} {
				checkLeaseLanes(t, label, eng, bw, false)
			}
		}
	}
}

// TestBatchStreamRetireSkipsLane: a retired lane's Out column must be left
// untouched while live lanes keep producing posteriors.
func TestBatchStreamRetireSkipsLane(t *testing.T) {
	const bw = 3
	eng := parallelTestEngine(t, 43, false, 1)
	l := eng.AcquireBatch(bw)
	defer l.Release()
	l.Retire(1)
	for i, f := range testFrames(44, 1, eng.InputDim())[0] {
		for k := 0; k < bw; k++ {
			l.In()[i*bw+k] = f
		}
	}
	const sentinel = float32(-123.5)
	dst := l.Out()
	for i := range dst {
		dst[i] = sentinel
	}
	l.Step()
	for i := 0; i < eng.OutputDim(); i++ {
		if dst[i*bw+1] != sentinel {
			t.Fatalf("retired lane written at elem %d: %v", i, dst[i*bw+1])
		}
		if dst[i*bw+0] == sentinel || dst[i*bw+2] == sentinel {
			t.Fatalf("live lane not written at elem %d", i)
		}
	}
}

// TestInferBatchIntoZeroAlloc is the batched allocation-regression gate:
// once the engine's arena free list is warm, steady-state InferBatchInto
// over a stable batch shape must not touch the heap, on both targets (the
// GPU target exercises the fp16 panel staging).
func TestInferBatchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	for _, target := range []*device.Target{device.MobileCPU(), device.MobileGPU()} {
		eng := allocEngine(t, target)
		batch := [][][]float32{
			testFrames(51, 12, 8),
			testFrames(52, 9, 8),
			testFrames(53, 12, 8),
		}
		dst := eng.InferBatch(batch) // warm up: arenas enter the free list
		if allocs := testing.AllocsPerRun(20, func() {
			eng.InferBatchInto(dst, batch)
		}); allocs != 0 {
			t.Fatalf("%s: InferBatchInto allocates %v times per call, want 0",
				target.Name, allocs)
		}
	}
}

// TestInferBatchAllocsConstantPerUtterance: InferBatch allocates the output
// posteriors (a fixed handful per utterance) but nothing per timestep.
func TestInferBatchAllocsConstantPerUtterance(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; alloc gate runs in the non-race suite")
	}
	eng := allocEngine(t, device.MobileGPU())
	short := [][][]float32{testFrames(55, 10, 8), testFrames(56, 8, 8)}
	long := [][][]float32{testFrames(57, 110, 8), testFrames(58, 95, 8)}
	eng.InferBatch(long) // warm up
	shortAllocs := testing.AllocsPerRun(10, func() { eng.InferBatch(short) })
	longAllocs := testing.AllocsPerRun(10, func() { eng.InferBatch(long) })
	// The long batch's flat posterior arenas are larger but not more
	// numerous; allow the runtime a couple of incidental size-class allocs.
	if longAllocs > shortAllocs+2 {
		t.Fatalf("InferBatch allocates per timestep: %v allocs for ~100 frames vs %v for ~10",
			longAllocs, shortAllocs)
	}
}

// TestInferBatchArenaReuseAcrossWidths: interleaving batch sizes must not
// confuse the width-keyed free list — every call stays bit-identical to
// serial Infer at 1, 2 and 8 workers, forking or not — and InferBatchInto
// opens width-1 sessions only: no wider session ever reaches the free list
// every used session is released to.
func TestInferBatchArenaReuseAcrossWidths(t *testing.T) {
	breakEven := forkJoinBreakEvenMACs
	defer func() { forkJoinBreakEvenMACs = breakEven }()
	for _, workers := range []int{1, 2, 8} {
		eng := parallelTestEngine(t, 47, true, workers)
		for round := 0; round < 3; round++ {
			forkJoinBreakEvenMACs = []int{0, breakEven, 0}[round] // 0: always fork
			for _, n := range []int{1, 3, 7, 2, 9, 17} {
				batch := make([][][]float32, n)
				for i := range batch {
					batch[i] = testFrames(uint64(200+round*10+i), 5+i, eng.InputDim())
				}
				got := eng.InferBatch(batch)
				for i := range batch {
					want := eng.Infer(batch[i])
					if !postEqual(got[i], want) {
						t.Fatalf("workers %d round %d n=%d utterance %d diverged from serial Infer",
							workers, round, n, i)
					}
				}
			}
		}
		for _, l := range eng.batchFree {
			if w := l.Width(); w != 1 {
				t.Fatalf("workers %d: InferBatchInto opened a width-%d session", workers, w)
			}
		}
	}
}

// TestInferBatchIntoShapeMismatch pins the up-front validation: each
// misshapen argument panics with an InferBatchInto message before any frame
// is scored, so the well-formed first utterance's rows stay untouched.
func TestInferBatchIntoShapeMismatch(t *testing.T) {
	eng := parallelTestEngine(t, 49, false, 1)
	in, out := eng.InputDim(), eng.OutputDim()
	cases := []struct {
		name  string
		frame int // width of the second utterance's last frame
		row   int // width of its last dst row
		dstN  int // len(dst)
		rowsN int // len(dst[1])
	}{
		{"dst shorter than batch", in, out, 1, 4},
		{"dst longer than batch", in, out, 3, 4},
		{"fewer dst rows than frames", in, out, 2, 3},
		{"more dst rows than frames", in, out, 2, 5},
		{"short frame", in - 1, out, 2, 4},
		{"wide frame", in + 42, out, 2, 4},
		{"short dst row", in, out - 1, 2, 4},
		{"wide dst row", in, out + 1, 2, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch := [][][]float32{testFrames(61, 4, in), testFrames(62, 4, in)}
			batch[1][3] = make([]float32, c.frame)
			dst := make([][][]float32, c.dstN)
			for i := range dst {
				n := 4
				if i == 1 {
					n = c.rowsN
				}
				dst[i] = make([][]float32, n)
				for j := range dst[i] {
					dst[i][j] = make([]float32, out)
				}
			}
			if len(dst) > 1 && len(dst[1]) == 4 {
				dst[1][3] = make([]float32, c.row)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "rtmobile: InferBatchInto ") {
					t.Fatalf("panic %q, want an InferBatchInto shape message", msg)
				}
				for _, row := range dst[0] {
					for _, v := range row {
						if v != 0 {
							t.Fatal("a frame was scored before the shape check failed")
						}
					}
				}
			}()
			eng.InferBatchInto(dst, batch)
		})
	}
}
