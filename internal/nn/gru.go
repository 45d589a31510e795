package nn

import "rtmobile/internal/tensor"

// GRU implements a gated recurrent unit layer over a frame sequence, with
// fused gate matrices and full backpropagation through time.
//
// Gate convention (CuDNN "reset-after" variant, which keeps both the input
// and the recurrent projection as single fused GEMVs — the unit the
// RTMobile compiler tiles and prunes):
//
//	ax = Wx·x + bx                 (3H: slices [z | r | c])
//	ah = Wh·h + bh                 (3H)
//	z  = σ(ax_z + ah_z)            update gate
//	r  = σ(ax_r + ah_r)            reset gate
//	c  = tanh(ax_c + r ⊙ ah_c)     candidate state
//	h' = (1−z) ⊙ h + z ⊙ c
//
// The paper's Fig. 1 GRU (Cho et al.) differs only in where the reset gate
// is applied (before vs. after the recurrent projection); accuracy is
// equivalent and the fused form is what mobile inference stacks execute.
type GRU struct {
	InDim, Hidden int
	// Wx is [3H × InDim], Wh is [3H × H]; rows 0..H-1 are the update gate,
	// H..2H-1 the reset gate, 2H..3H-1 the candidate.
	Wx, Wh, Bx, Bh *Param

	// Per-sequence caches for BPTT.
	inputs  [][]float32
	hPrev   [][]float32 // h_{t-1} for each t (hPrev[0] is the zero state)
	zs, rs  [][]float32
	cs      [][]float32
	ahc     [][]float32 // the candidate slice of ah (needed for dr)
	outputs [][]float32
}

// NewGRU builds a GRU layer with Xavier-initialized projections.
func NewGRU(name string, inDim, hidden int, rng *tensor.RNG) *GRU {
	g := &GRU{
		InDim:  inDim,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", 3*hidden, inDim),
		Wh:     NewParam(name+".Wh", 3*hidden, hidden),
		Bx:     NewParam(name+".bx", 1, 3*hidden),
		Bh:     NewParam(name+".bh", 1, 3*hidden),
	}
	g.Wx.W.XavierInit(rng, inDim, hidden)
	g.Wh.W.XavierInit(rng, hidden, hidden)
	return g
}

// OutDim implements Layer.
func (g *GRU) OutDim() int { return g.Hidden }

// Params implements Layer.
func (g *GRU) Params() []*Param { return []*Param{g.Wx, g.Wh, g.Bx, g.Bh} }

// Forward runs the recurrence from a zero initial state and caches
// activations for Backward. It is the exact tier's oracle, so its products
// are rounded to float32 explicitly, as in tensor.GRUEpilogue: no target may
// fuse them into a multiply-add.
func (g *GRU) Forward(seq [][]float32) [][]float32 {
	T := len(seq)
	H := g.Hidden
	g.inputs = seq
	g.hPrev = make([][]float32, T)
	g.zs = make([][]float32, T)
	g.rs = make([][]float32, T)
	g.cs = make([][]float32, T)
	g.ahc = make([][]float32, T)
	g.outputs = make([][]float32, T)

	h := make([]float32, H)
	ax := make([]float32, 3*H)
	ah := make([]float32, 3*H)
	for t := 0; t < T; t++ {
		g.hPrev[t] = tensor.CloneVec(h)

		copy(ax, g.Bx.W.Data)
		tensor.MatVecAdd(ax, g.Wx.W, seq[t])
		copy(ah, g.Bh.W.Data)
		tensor.MatVecAdd(ah, g.Wh.W, h)

		z := make([]float32, H)
		r := make([]float32, H)
		c := make([]float32, H)
		ahcT := tensor.CloneVec(ah[2*H : 3*H])
		for i := 0; i < H; i++ {
			z[i] = sigmoid(ax[i] + ah[i])
			r[i] = sigmoid(ax[H+i] + ah[H+i])
		}
		for i := 0; i < H; i++ {
			c[i] = tanh32(ax[2*H+i] + float32(r[i]*ahcT[i]))
		}
		hNew := make([]float32, H)
		for i := 0; i < H; i++ {
			hNew[i] = float32((1-z[i])*h[i]) + float32(z[i]*c[i])
		}
		g.zs[t], g.rs[t], g.cs[t], g.ahc[t] = z, r, c, ahcT
		g.outputs[t] = hNew
		copy(h, hNew)
	}
	return g.outputs
}

// Backward runs BPTT, accumulating parameter gradients and returning
// dLoss/dInput per frame.
func (g *GRU) Backward(grad [][]float32) [][]float32 {
	T := len(grad)
	H := g.Hidden
	din := make([][]float32, T)
	dh := make([]float32, H) // gradient flowing from t+1 into h_t
	dax := make([]float32, 3*H)
	dah := make([]float32, 3*H)

	for t := T - 1; t >= 0; t-- {
		// Total gradient at h_t: from the output at t plus recurrent flow.
		for i := 0; i < H; i++ {
			dh[i] += grad[t][i]
		}
		z, r, c := g.zs[t], g.rs[t], g.cs[t]
		hPrev := g.hPrev[t]
		ahc := g.ahc[t]

		dhNext := make([]float32, H) // gradient wrt h_{t-1}
		for i := 0; i < H; i++ {
			dhi := dh[i]
			dz := dhi * (c[i] - hPrev[i])
			dc := dhi * z[i]
			dhNext[i] = dhi * (1 - z[i])

			dcPre := dc * (1 - float32(c[i]*c[i]))
			dr := dcPre * ahc[i]
			dahcI := dcPre * r[i]

			dzs := dz * z[i] * (1 - z[i])
			drs := dr * r[i] * (1 - r[i])

			dax[i] = dzs
			dax[H+i] = drs
			dax[2*H+i] = dcPre
			dah[i] = dzs
			dah[H+i] = drs
			dah[2*H+i] = dahcI
		}

		// Parameter gradients.
		tensor.OuterAdd(g.Wx.Grad, dax, g.inputs[t])
		tensor.OuterAdd(g.Wh.Grad, dah, hPrev)
		tensor.Axpy(1, dax, g.Bx.Grad.Data)
		tensor.Axpy(1, dah, g.Bh.Grad.Data)

		// Input gradient.
		dx := make([]float32, g.InDim)
		tensor.MatTVecAdd(dx, g.Wx.W, dax)
		din[t] = dx

		// Recurrent gradient into h_{t-1}.
		tensor.MatTVecAdd(dhNext, g.Wh.W, dah)
		copy(dh, dhNext)
	}
	return din
}

// sigmoid and tanh32 are the exact-tier gate scalars. Their historical
// bodies (clamps included) moved verbatim to the tensor package so the
// fused epilogue kernels and these training-path loops share one bit-pinned
// definition.
func sigmoid(x float32) float32 { return tensor.Sigmoid32(x) }

func tanh32(x float32) float32 { return tensor.Tanh32(x) }
