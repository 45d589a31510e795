package nn

import (
	"bytes"
	"math"
	"testing"

	"rtmobile/internal/tensor"
)

func TestGRUForwardShapes(t *testing.T) {
	g := NewGRU("g", 5, 8, tensor.NewRNG(1))
	seq := toyData(1, 12, 5, 2).Frames
	out := g.Forward(seq)
	if len(out) != 12 {
		t.Fatalf("output length %d", len(out))
	}
	for _, h := range out {
		if len(h) != 8 {
			t.Fatalf("hidden dim %d", len(h))
		}
	}
}

func TestGRUHiddenBounded(t *testing.T) {
	// h is a convex combination of bounded quantities: |h| <= 1 always.
	g := NewGRU("g", 4, 6, tensor.NewRNG(2))
	seq := make([][]float32, 50)
	rng := tensor.NewRNG(3)
	for i := range seq {
		row := make([]float32, 4)
		for j := range row {
			row[j] = float32(rng.NormFloat64() * 10) // large inputs
		}
		seq[i] = row
	}
	out := g.Forward(seq)
	for t2, h := range out {
		for i, v := range h {
			if v < -1.0001 || v > 1.0001 {
				t.Fatalf("hidden[%d][%d] = %v outside [-1,1]", t2, i, v)
			}
		}
	}
}

func TestGRUZeroInputZeroState(t *testing.T) {
	// With zero biases and zero input, the state stays exactly zero only if
	// tanh/sigmoid fixed points hold: z=σ(0)=0.5, c=tanh(0)=0, h'=0.5*0=0.
	g := NewGRU("g", 3, 4, tensor.NewRNG(4))
	g.Bx.W.Zero()
	g.Bh.W.Zero()
	seq := [][]float32{make([]float32, 3), make([]float32, 3)}
	out := g.Forward(seq)
	for _, h := range out {
		for _, v := range h {
			if v != 0 {
				t.Fatalf("zero input produced nonzero state %v", v)
			}
		}
	}
}

func TestGRUStatePropagates(t *testing.T) {
	// An impulse at t=0 must influence the state at later timesteps.
	g := NewGRU("g", 2, 4, tensor.NewRNG(5))
	quiet := [][]float32{{0, 0}, {0, 0}, {0, 0}}
	impulse := [][]float32{{3, -2}, {0, 0}, {0, 0}}
	a := g.Forward(quiet)
	last := tensor.CloneVec(a[2])
	b := g.Forward(impulse)
	diff := 0.0
	for i := range last {
		diff += math.Abs(float64(b[2][i] - last[i]))
	}
	if diff < 1e-6 {
		t.Fatal("impulse at t=0 did not propagate to t=2")
	}
}

func TestModelArchitecture(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 39, Hidden: 16, NumLayers: 2, OutputDim: 39, Seed: 1})
	if len(m.Layers) != 3 {
		t.Fatalf("layer count %d", len(m.Layers))
	}
	out := m.Forward(toyData(1, 10, 39, 39).Frames)
	if len(out) != 10 || len(out[0]) != 39 {
		t.Fatal("output shape wrong")
	}
}

func TestPaperSpecParamCount(t *testing.T) {
	// The paper's model has "about 9.6M" parameters. With 2 GRU layers at
	// hidden 1024 over 39-dim inputs plus the classifier:
	// L1: 3*1024*(39+1024), L2: 3*1024*(1024+1024), out: 39*1024 (+biases).
	m := NewGRUModel(PaperGRUSpec())
	n := m.NumParams()
	if n < 9_400_000 || n > 9_900_000 {
		t.Fatalf("paper spec has %d params, want ≈9.6M", n)
	}
}

func TestWeightMatricesExcludeBiases(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 8, Hidden: 8, NumLayers: 1, OutputDim: 4, Seed: 1})
	for _, p := range m.WeightMatrices() {
		if p.W.Rows == 1 {
			t.Fatalf("bias %s returned as weight matrix", p.Name)
		}
	}
	if len(m.WeightMatrices()) != 3 { // Wx, Wh, out.W
		t.Fatalf("weight matrix count %d, want 3", len(m.WeightMatrices()))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 6, Hidden: 12, NumLayers: 1, OutputDim: 4, Seed: 3})
	// Learnable task: label = argmax of first 4 input dims.
	rng := tensor.NewRNG(10)
	var data []Sequence
	for u := 0; u < 8; u++ {
		T := 15
		frames := make([][]float32, T)
		labels := make([]int, T)
		for t2 := 0; t2 < T; t2++ {
			row := make([]float32, 6)
			for j := range row {
				row[j] = float32(rng.NormFloat64())
			}
			frames[t2] = row
			labels[t2] = tensor.ArgMax(row[:4])
		}
		data = append(data, Sequence{Frames: frames, Labels: labels})
	}
	before := m.Loss(data)
	m.Train(data, NewAdam(0.01), TrainConfig{Epochs: 15, Seed: 1})
	after := m.Loss(data)
	if after >= before*0.7 {
		t.Fatalf("training did not reduce loss: %.4f -> %.4f", before, after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	build := func() float64 {
		m := NewGRUModel(ModelSpec{InputDim: 4, Hidden: 6, NumLayers: 1, OutputDim: 3, Seed: 2})
		data := []Sequence{toyData(5, 10, 4, 3), toyData(6, 12, 4, 3)}
		m.Train(data, NewAdam(0.01), TrainConfig{Epochs: 3, Seed: 4})
		return m.Loss(data)
	}
	if build() != build() {
		t.Fatal("training is not deterministic")
	}
}

func TestNewModelDispatch(t *testing.T) {
	spec := ModelSpec{InputDim: 3, Hidden: 4, NumLayers: 1, OutputDim: 2, Seed: 1, Cell: CellGRU}
	g := NewModel(spec)
	if _, ok := g.Layers[0].(*GRU); !ok {
		t.Fatal("CellGRU did not build a GRU")
	}
	if g.Spec != spec || g.Spec.String() != "gru1x4-in3-out2" {
		t.Fatalf("NewModel spec %v, want %v", g.Spec, spec)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 4, Hidden: 5, NumLayers: 1, OutputDim: 3, Seed: 7})
	c := m.Clone()
	mp, cp := m.Params(), c.Params()
	for i := range mp {
		if !mp[i].W.Equal(cp[i].W) {
			t.Fatalf("clone differs at %s", mp[i].Name)
		}
	}
	cp[0].W.Data[0] += 1
	if mp[0].W.Data[0] == cp[0].W.Data[0] {
		t.Fatal("clone shares storage")
	}
}

func TestSoftmaxCrossEntropyGradientSums(t *testing.T) {
	// Each frame's gradient sums to zero (softmax minus one-hot).
	logits := [][]float32{{1, 2, 3}, {0, 0, 0}}
	labels := []int{0, 2}
	loss, grad := SoftmaxCrossEntropy(logits, labels)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	for t2, g := range grad {
		sum := 0.0
		for _, v := range g {
			sum += float64(v)
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("frame %d gradient sums to %v", t2, sum)
		}
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := [][]float32{{100, 0, 0}}
	loss, _ := SoftmaxCrossEntropy(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction loss %v", loss)
	}
}

func TestPosteriorsRows(t *testing.T) {
	p := Posteriors([][]float32{{1, 2}, {3, 1}})
	for _, row := range p {
		sum := 0.0
		for _, v := range row {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("posterior row sums to %v", sum)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 3)
	p.Grad.Data = []float32{3, 4, 0}
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	post := math.Sqrt(float64(p.Grad.Data[0]*p.Grad.Data[0] + p.Grad.Data[1]*p.Grad.Data[1]))
	if math.Abs(post-1) > 1e-5 {
		t.Fatalf("post-clip norm %v", post)
	}
	// Below threshold: untouched.
	p.Grad.Data = []float32{0.1, 0, 0}
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified a small gradient")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 via the Param/Optimizer interface.
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data[0])-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestOptimizerReset(t *testing.T) {
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	opt.Reset()
	if opt.t != 0 || len(opt.m) != 0 {
		t.Fatal("Adam Reset did not clear state")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 1
	opt := NewAdam(0.1)
	opt.WeightDecay = 0.5
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if p.W.Data[0] >= 1 {
		t.Fatal("weight decay had no effect")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewGRUModel(ModelSpec{InputDim: 5, Hidden: 7, NumLayers: 2, OutputDim: 4, Seed: 13})
	// Perturb weights so we're not just reloading the init.
	m.Params()[0].W.Data[3] = 0.12345
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.Params(), m2.Params()
	for i := range a {
		if !a[i].W.Equal(b[i].W) {
			t.Fatalf("round trip differs at %s", a[i].Name)
		}
	}
	// Loaded model must be functional.
	out := m2.Forward(toyData(3, 5, 5, 4).Frames)
	if len(out) != 5 {
		t.Fatal("loaded model forward failed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOPEgarbage"))); err == nil {
		t.Fatal("garbage input should fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail to load")
	}
}
