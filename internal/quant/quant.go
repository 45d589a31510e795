// Package quant implements linear fixed-point weight quantization. The
// comparison systems store quantized weights — ESE uses 12-bit values
// (its 16-bit entries are 12-bit weight + 4-bit relative index), E-RNN and
// C-LSTM similar — so honest footprint and accuracy accounting for the
// baselines needs a real quantizer, not just a bit-width multiplier. The
// RTMobile GPU path itself uses fp16 (tensor.RoundHalf); this package
// covers the integer formats.
package quant

import (
	"fmt"
	"math"

	"rtmobile/internal/tensor"
)

// Scheme selects how the quantization scale is chosen.
type Scheme int

const (
	// PerTensor uses one scale for the whole matrix.
	PerTensor Scheme = iota
	// PerRow uses one scale per output row (finer, standard for RNN
	// weights where gate rows have very different ranges).
	PerRow
)

// String names the scheme.
func (s Scheme) String() string {
	if s == PerRow {
		return "per-row"
	}
	return "per-tensor"
}

// QMatrix is a symmetric linearly-quantized matrix: value ≈ scale · q with
// q an integer in [−(2^(bits−1)−1), 2^(bits−1)−1]. Zero is exactly
// representable (symmetric, no zero-point), which matters because pruned
// weights must stay exactly zero.
type QMatrix struct {
	Rows, Cols int
	Bits       int
	Scheme     Scheme
	// Scales has length 1 (PerTensor) or Rows (PerRow).
	Scales []float32
	// Q holds the quantized integers, row-major.
	Q []int32
}

// QMax returns the largest representable integer magnitude at a bit width:
// 2^(bits−1)−1 (symmetric range, so −QMax..QMax).
func QMax(bits int) float64 {
	return float64(int64(1)<<(bits-1) - 1)
}

// ScaleFor returns the symmetric scale mapping maxAbs onto QMax(bits). An
// all-zero range gets scale 1 (arbitrary; every value quantizes to 0). The
// mapping is idempotent under requantization: the max-magnitude element
// dequantizes to exactly scale·QMax, whose maxAbs yields the same scale.
func ScaleFor(maxAbs float64, bits int) float32 {
	if maxAbs == 0 {
		return 1
	}
	return float32(maxAbs / QMax(bits))
}

// ClampRound rounds x to the nearest integer and clamps it into
// [−qmax, qmax]; x is the already-scaled value v/scale.
func ClampRound(x, qmax float64) int32 {
	r := math.Round(x)
	if r > qmax {
		r = qmax
	}
	if r < -qmax {
		r = -qmax
	}
	return int32(r)
}

// Quantize converts a matrix at the given bit width (2..32).
func Quantize(m *tensor.Matrix, bits int, scheme Scheme) (*QMatrix, error) {
	if bits < 2 || bits > 32 {
		return nil, fmt.Errorf("quant: bits must be in [2,32], got %d", bits)
	}
	qmax := QMax(bits)
	q := &QMatrix{
		Rows: m.Rows, Cols: m.Cols, Bits: bits, Scheme: scheme,
		Q: make([]int32, len(m.Data)),
	}
	switch scheme {
	case PerTensor:
		q.Scales = []float32{ScaleFor(float64(m.MaxAbs()), bits)}
		s := float64(q.Scales[0])
		for i, v := range m.Data {
			q.Q[i] = ClampRound(float64(v)/s, qmax)
		}
	case PerRow:
		q.Scales = make([]float32, m.Rows)
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			maxAbs := 0.0
			for _, v := range row {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
			q.Scales[r] = ScaleFor(maxAbs, bits)
			s := float64(q.Scales[r])
			for c, v := range row {
				q.Q[r*m.Cols+c] = ClampRound(float64(v)/s, qmax)
			}
		}
	default:
		return nil, fmt.Errorf("quant: unknown scheme %v", scheme)
	}
	return q, nil
}

// Dequantize reconstructs the float matrix.
func (q *QMatrix) Dequantize() *tensor.Matrix {
	m := tensor.NewMatrix(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		s := q.Scales[0]
		if q.Scheme == PerRow {
			s = q.Scales[r]
		}
		for c := 0; c < q.Cols; c++ {
			m.Data[r*q.Cols+c] = s * float32(q.Q[r*q.Cols+c])
		}
	}
	return m
}

// Bytes returns the storage footprint: bits per element plus 32-bit
// scales.
func (q *QMatrix) Bytes() int {
	bits := len(q.Q)*q.Bits + len(q.Scales)*32
	return (bits + 7) / 8
}

// QuantizeModelWeights quantizes every matrix through bits and writes the
// dequantized values back — the "deploy at b bits" accuracy experiment.
func QuantizeModelWeights(mats []*tensor.Matrix, bits int, scheme Scheme) error {
	for _, m := range mats {
		q, err := Quantize(m, bits, scheme)
		if err != nil {
			return err
		}
		m.CopyFrom(q.Dequantize())
	}
	return nil
}
