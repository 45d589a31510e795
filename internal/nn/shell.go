package nn

import (
	"fmt"

	"rtmobile/internal/tensor"
)

// Shell construction. A deployed engine (internal/rtmobile.Engine) keeps
// the model's layer/param structure but only some of its storage — the
// biases, its weight matrices living in compiled programs — and a mapped
// bundle's storage aliases read-only pages, so the structure must stand up
// without allocating or initializing any weight data: O(layers), not
// O(weights). NewModelShell builds exactly the layer stack NewModel would,
// but every Param carries a shape-only Matrix (nil Data); the caller
// attaches storage to the params it uses. Gradient accumulators are
// shape-only too: a shell model is for inference, not training.

// newMatrixShell returns a Matrix header with the right shape and no
// backing storage.
func newMatrixShell(rows, cols int) *tensor.Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: negative matrix shape %dx%d", rows, cols))
	}
	return &tensor.Matrix{Rows: rows, Cols: cols}
}

// newParamShell is NewParam without the two rows×cols allocations.
func newParamShell(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    newMatrixShell(rows, cols),
		Grad: newMatrixShell(rows, cols),
	}
}

// newGRUShell mirrors NewGRU's shapes without allocating weight storage.
func newGRUShell(name string, inDim, hidden int) *GRU {
	return &GRU{
		InDim:  inDim,
		Hidden: hidden,
		Wx:     newParamShell(name+".Wx", 3*hidden, inDim),
		Wh:     newParamShell(name+".Wh", 3*hidden, hidden),
		Bx:     newParamShell(name+".bx", 1, 3*hidden),
		Bh:     newParamShell(name+".bh", 1, 3*hidden),
	}
}

// newDenseShell mirrors NewDense's shapes without allocating weight storage.
func newDenseShell(name string, inDim, outDim int) *Dense {
	return &Dense{
		InDim:   inDim,
		OutDimN: outDim,
		Weight:  newParamShell(name+".W", outDim, inDim),
		Bias:    newParamShell(name+".b", 1, outDim),
	}
}

// NewModelShell builds the layer stack the spec describes with shape-only
// parameters: every Param's W and Grad have the right Rows/Cols and nil
// Data. The caller must attach storage (len Rows×Cols) to each W before
// inference; Params() order is identical to NewModel's, so a positional
// walk attaches correctly. The shell performs no per-weight work.
func NewModelShell(spec ModelSpec) *Model {
	if spec.NumLayers < 1 {
		panic("nn: NumLayers must be >= 1")
	}
	m := &Model{Spec: spec}
	in := spec.InputDim
	for l := 0; l < spec.NumLayers; l++ {
		m.Layers = append(m.Layers, newGRUShell(fmt.Sprintf("%s%d", spec.Cell, l), in, spec.Hidden))
		in = spec.Hidden
	}
	m.Layers = append(m.Layers, newDenseShell("out", in, spec.OutputDim))
	return m
}
