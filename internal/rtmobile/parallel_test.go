package rtmobile

import (
	"sync"
	"testing"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/parallel"
	"rtmobile/internal/tensor"
)

// parallelTestEngine deploys a pruned test model; gpu=true exercises the
// fp16 path (MobileGPU resolves to 16-bit values).
func parallelTestEngine(t *testing.T, seed uint64, gpu bool, workers int) *Engine {
	t.Helper()
	m := testModel(seed)
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 1, RowGroups: 4, ColBlocks: 4})
	target := device.MobileCPU()
	if gpu {
		target = device.MobileGPU()
	}
	eng, err := Compile(m, res.Scheme, DeployConfig{
		Target: target, Format: compiler.FormatBSPC, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func samePosteriors(t *testing.T, a, b [][]float32, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: frame count %d vs %d", label, len(a), len(b))
	}
	for f := range a {
		for j := range a[f] {
			if a[f][j] != b[f][j] {
				t.Fatalf("%s: frame %d dim %d: %v != %v", label, f, j, a[f][j], b[f][j])
			}
		}
	}
}

// TestInferMatchesForwardPath pins the stream-backed Infer to the batch
// Forward path bit-for-bit: the steppers replay Forward's float op order.
func TestInferMatchesForwardPath(t *testing.T) {
	for _, gpu := range []bool{false, true} {
		eng := parallelTestEngine(t, 21, gpu, 0)
		frames := testFrames(22, 15, 8)
		got := eng.Infer(frames)

		in := frames
		if gpu { // engine quantizes activations on the fp16 path
			in = make([][]float32, len(frames))
			for i, f := range frames {
				q := tensor.CloneVec(f)
				tensor.QuantizeHalfVec(q)
				in[i] = q
			}
		}
		want := nn.Posteriors(eng.denseModel().Forward(in))
		samePosteriors(t, got, want, "stream-vs-forward")
	}
}

// TestInferBatchBitIdentical is the serving half of the equivalence suite:
// batch output must be exactly the serial per-utterance output at every
// worker count, fp16 on and off.
func TestInferBatchBitIdentical(t *testing.T) {
	for _, gpu := range []bool{false, true} {
		ref := parallelTestEngine(t, 31, gpu, 1)
		batch := make([][][]float32, 9)
		for i := range batch {
			batch[i] = testFrames(uint64(40+i), 6+i, 8)
		}
		want := make([][][]float32, len(batch))
		for i, u := range batch {
			want[i] = ref.Infer(u)
		}
		for _, workers := range []int{1, 2, 7, parallel.DefaultWorkers()} {
			eng := parallelTestEngine(t, 31, gpu, workers)
			if eng.Pool().Workers() != workers {
				t.Fatalf("Workers knob not honored: %d != %d", eng.Pool().Workers(), workers)
			}
			got := eng.InferBatch(batch)
			for i := range got {
				samePosteriors(t, got[i], want[i], "batch-vs-serial")
			}
		}
	}
}

// TestInferBatchEmpty covers the degenerate batches.
func TestInferBatchEmpty(t *testing.T) {
	eng := parallelTestEngine(t, 51, false, 2)
	if got := eng.InferBatch(nil); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	got := eng.InferBatch([][][]float32{{}, testFrames(52, 3, 8)})
	if len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 3 {
		t.Fatal("empty utterance mishandled")
	}
}

// TestEngineConcurrentStress hammers one shared Engine from many
// goroutines mixing all three entry points — one-shot Infer, InferBatch,
// and stateful streams — and checks every result against the serial
// reference. Run it under -race (make race) to prove the ownership rule:
// engine weights are read-only, all mutable state is per-call.
func TestEngineConcurrentStress(t *testing.T) {
	eng := parallelTestEngine(t, 61, true, 4)
	utts := make([][][]float32, 6)
	refs := make([][][]float32, len(utts))
	for i := range utts {
		utts[i] = testFrames(uint64(70+i), 8+i, 8)
		refs[i] = eng.Infer(utts[i])
	}

	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				switch (g + iter) % 3 {
				case 0: // one-shot inference
					i := (g + iter) % len(utts)
					got := eng.Infer(utts[i])
					if !postEqual(got, refs[i]) {
						errc <- "Infer diverged under concurrency"
						return
					}
				case 1: // batch inference
					got := eng.InferBatch(utts)
					for i := range got {
						if !postEqual(got[i], refs[i]) {
							errc <- "InferBatch diverged under concurrency"
							return
						}
					}
				case 2: // stateful stream
					i := (g + iter) % len(utts)
					s := eng.NewStream()
					for f, frame := range utts[i] {
						got := s.Step(frame)
						for j := range got {
							if got[j] != refs[i][f][j] {
								errc <- "Stream diverged under concurrency"
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

func postEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if len(a[f]) != len(b[f]) {
			return false
		}
		for j := range a[f] {
			if a[f][j] != b[f][j] {
				return false
			}
		}
	}
	return true
}

// TestDefaultPoolWiring: Workers=0 must share the process default pool.
func TestDefaultPoolWiring(t *testing.T) {
	eng := parallelTestEngine(t, 81, false, 0)
	if eng.Pool() != parallel.Default() {
		t.Fatal("Workers=0 engine did not get the default pool")
	}
	eng.SetWorkers(3)
	if eng.Pool().Workers() != 3 {
		t.Fatalf("SetWorkers(3) pool has %d workers", eng.Pool().Workers())
	}
	eng.SetWorkers(0)
	if eng.Pool() != parallel.Default() {
		t.Fatal("SetWorkers(0) did not restore the default pool")
	}
}
