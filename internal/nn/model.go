package nn

import (
	"fmt"

	"rtmobile/internal/tensor"
)

// Model is a layer stack ending in a framewise classifier. The paper's
// architecture — 2 GRU layers followed by a softmax output over 39 phones,
// ~9.6M parameters at hidden size 1024 — is NewGRUModel's default shape.
type Model struct {
	Layers []Layer
	// Spec records the construction parameters for serialization and for
	// the performance harness (which builds execution plans from shapes).
	Spec ModelSpec
}

// CellType selects the recurrent cell of a model.
type CellType int

const (
	// CellGRU is the paper's evaluation architecture.
	CellGRU CellType = iota
	// CellLSTM mirrors the ESE / C-LSTM / E-RNN comparison systems.
	CellLSTM
)

// String names the cell.
func (c CellType) String() string {
	if c == CellLSTM {
		return "lstm"
	}
	return "gru"
}

// ModelSpec describes a recurrent classifier's architecture.
type ModelSpec struct {
	InputDim  int
	Hidden    int
	NumLayers int
	OutputDim int
	Seed      uint64
	Cell      CellType
}

// String names the architecture, e.g. "gru2x1024-in39-out39".
func (s ModelSpec) String() string {
	return fmt.Sprintf("%s%dx%d-in%d-out%d", s.Cell, s.NumLayers, s.Hidden, s.InputDim, s.OutputDim)
}

// NewModel builds the model the spec describes (GRU or LSTM stack plus a
// Dense classifier).
func NewModel(spec ModelSpec) *Model {
	if spec.Cell == CellLSTM {
		return NewLSTMModel(spec)
	}
	return NewGRUModel(spec)
}

// NewGRUModel constructs the paper's architecture: NumLayers stacked GRUs
// followed by a Dense classifier.
func NewGRUModel(spec ModelSpec) *Model {
	if spec.NumLayers < 1 {
		panic("nn: NumLayers must be >= 1")
	}
	spec.Cell = CellGRU
	rng := tensor.NewRNG(spec.Seed)
	m := &Model{Spec: spec}
	in := spec.InputDim
	for l := 0; l < spec.NumLayers; l++ {
		m.Layers = append(m.Layers, NewGRU(fmt.Sprintf("gru%d", l), in, spec.Hidden, rng))
		in = spec.Hidden
	}
	m.Layers = append(m.Layers, NewDense("out", in, spec.OutputDim, rng))
	return m
}

// PaperGRUSpec returns the evaluation model of the paper: 2 GRU layers,
// hidden size 1024, 39-dim MFCC inputs, 39 phone outputs — ≈9.6M weights.
func PaperGRUSpec() ModelSpec {
	return ModelSpec{InputDim: 39, Hidden: 1024, NumLayers: 2, OutputDim: 39, Seed: 1}
}

// Forward runs the full stack on one utterance.
func (m *Model) Forward(seq [][]float32) [][]float32 {
	out := seq
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates the loss gradient through the stack.
func (m *Model) Backward(grad [][]float32) {
	g := grad
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(g)
	}
}

// Params returns all trainable parameters.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// WeightMatrices returns the prunable 2-D weight matrices (GRU projections
// and the classifier weight), excluding biases — matching the paper, which
// prunes weight tensors only.
func (m *Model) WeightMatrices() []*Param {
	var ps []*Param
	for _, p := range m.Params() {
		if p.W.Rows > 1 && p.W.Cols > 1 {
			ps = append(ps, p)
		}
	}
	return ps
}

// NumParams counts every trainable element.
func (m *Model) NumParams() int { return CountParams(m.Params()) }

// Clone deep-copies the model (weights only; caches and gradients reset).
func (m *Model) Clone() *Model {
	c := NewModel(m.Spec)
	src := m.Params()
	dst := c.Params()
	for i := range src {
		dst[i].W.CopyFrom(src[i].W)
	}
	return c
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs   int
	LR       float64
	ClipNorm float64
	Seed     uint64
	// GradHook, if set, runs after each utterance's backward pass and
	// before the optimizer step. The ADMM trainer injects the proximal
	// term ρ(W−Z+U) here.
	GradHook func(params []*Param)
	// PostStep, if set, runs after each optimizer step. Masked retraining
	// re-applies the pruning mask here.
	PostStep func(params []*Param)
	// LogEvery, if positive and Logf is set, reports the epoch's mean loss
	// through Logf after every LogEvery-th epoch; Train is silent otherwise.
	LogEvery int
	Logf     func(format string, args ...any)
}

// Sequence pairs a feature sequence with its frame labels.
type Sequence struct {
	Frames [][]float32
	Labels []int
}

// Train runs utterance-level SGD over the dataset and returns the final
// epoch's mean loss.
func (m *Model) Train(data []Sequence, opt Optimizer, cfg TrainConfig) float64 {
	if cfg.ClipNorm == 0 {
		cfg.ClipNorm = 5
	}
	rng := tensor.NewRNG(cfg.Seed + 7777)
	params := m.Params()
	lastLoss := 0.0
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			seq := data[idx]
			if len(seq.Frames) == 0 {
				continue
			}
			ZeroGrads(params)
			logits := m.Forward(seq.Frames)
			loss, grad := SoftmaxCrossEntropy(logits, seq.Labels)
			total += loss
			m.Backward(grad)
			if cfg.GradHook != nil {
				cfg.GradHook(params)
			}
			ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(params)
			if cfg.PostStep != nil {
				cfg.PostStep(params)
			}
		}
		lastLoss = total / float64(len(data))
		if cfg.Logf != nil && cfg.LogEvery > 0 && (epoch+1)%cfg.LogEvery == 0 {
			cfg.Logf("epoch %d/%d loss %.4f", epoch+1, cfg.Epochs, lastLoss)
		}
	}
	return lastLoss
}

// Loss evaluates the mean cross-entropy over a dataset without training.
func (m *Model) Loss(data []Sequence) float64 {
	total := 0.0
	n := 0
	for _, seq := range data {
		if len(seq.Frames) == 0 {
			continue
		}
		logits := m.Forward(seq.Frames)
		loss, _ := SoftmaxCrossEntropy(logits, seq.Labels)
		total += loss
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
