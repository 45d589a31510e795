package nn

import (
	"math"
	"testing"
)

// streamClose verifies a stream reproduces the batch forward pass exactly.
func streamMatchesForward(t *testing.T, m *Model, data Sequence) {
	t.Helper()
	batch := m.Forward(data.Frames)
	stream := m.NewStream()
	for t2, frame := range data.Frames {
		got := stream.Step(frame)
		for j := range got {
			if math.Abs(float64(got[j]-batch[t2][j])) > 1e-5 {
				t.Fatalf("frame %d dim %d: stream %v vs batch %v", t2, j, got[j], batch[t2][j])
			}
		}
	}
}

func TestStreamMatchesBatchGRU(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 5, Hidden: 8, NumLayers: 2, OutputDim: 4, Seed: 1})
	streamMatchesForward(t, m, toyData(2, 20, 5, 4))
}

func TestStreamReset(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 4, Hidden: 6, NumLayers: 1, OutputDim: 3, Seed: 5})
	data := toyData(6, 10, 4, 3)
	stream := m.NewStream()
	// First pass.
	first := make([][]float32, len(data.Frames))
	for i, f := range data.Frames {
		out := stream.Step(f)
		first[i] = append([]float32(nil), out...)
	}
	// Without reset, a second pass differs (state carried over).
	carried := stream.Step(data.Frames[0])
	same := true
	for j := range carried {
		if carried[j] != first[0][j] {
			same = false
		}
	}
	if same {
		t.Fatal("state did not carry across frames")
	}
	// With reset, the second pass reproduces the first exactly.
	stream.Reset()
	for i, f := range data.Frames {
		out := stream.Step(f)
		for j := range out {
			if out[j] != first[i][j] {
				t.Fatalf("after Reset, frame %d differs", i)
			}
		}
	}
}

func TestStreamSharesWeights(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 3, Hidden: 4, NumLayers: 1, OutputDim: 2, Seed: 7})
	stream := m.NewStream()
	x := []float32{1, 0, -1}
	before := append([]float32(nil), stream.Step(x)...)
	stream.Reset()
	// Mutate a weight; the stream must see it.
	m.Params()[0].W.Data[0] += 1
	after := stream.Step(x)
	diff := false
	for j := range after {
		if after[j] != before[j] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("stream did not share weights with the model")
	}
}
