package nn

import "math"

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	Step(params []*Param)
	// Reset clears any per-parameter state (moments), e.g. between the
	// ADMM pre-training and masked-retraining phases.
	Reset()
}

// Adam is the Adam optimizer (Kingma & Ba) — the paper notes ADMM pruning
// "requires the most advanced optimizer in stochastic gradient descent
// (e.g., Adam optimizer)", so it is the default for BSP training.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64
	t                     int
	m, v                  map[*Param][]float32
}

// NewAdam builds an Adam optimizer with the standard defaults for the
// unset coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float32), v: make(map[*Param][]float32),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	b1 := a.Beta1
	b2 := a.Beta2
	// Bias-corrected step size.
	stepSize := a.LR * math.Sqrt(1-math.Pow(b2, float64(a.t))) / (1 - math.Pow(b1, float64(a.t)))
	wd := float32(a.WeightDecay)
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float32, len(p.W.Data))
			v = make([]float32, len(p.W.Data))
			a.m[p] = m
			a.v[p] = v
		}
		for i := range p.W.Data {
			g := float64(p.Grad.Data[i] + float32(wd*p.W.Data[i]))
			m[i] = float32(b1*float64(m[i]) + (1-b1)*g)
			v[i] = float32(b2*float64(v[i]) + (1-b2)*g*g)
			p.W.Data[i] -= float32(stepSize * float64(m[i]) / (math.Sqrt(float64(v[i])) + a.Eps))
		}
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	a.t = 0
	a.m = make(map[*Param][]float32)
	a.v = make(map[*Param][]float32)
}

// ClipGradNorm scales all gradients so their global L2 norm is at most
// maxNorm; returns the pre-clip norm. Essential for RNN stability.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}
