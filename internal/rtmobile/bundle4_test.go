package rtmobile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rtmobile/internal/compiler"
	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// The version-4 encoder, kept as a test helper: the product writes only v5,
// but LoadBundle still reads v1–v4, so the reader tests need files of those
// versions (asV1/asV2/asV3 derive the older layouts from a v4 image). It
// encodes the engine's dense model as rebuilt from its programs — the
// weights every v4 file of a deployment carried.

// saveBundleV4 writes the version-4 per-field artifact of e.
func (e *Engine) saveBundleV4(w io.Writer, scheme prune.BSP) error {
	le := binary.LittleEndian
	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	model := e.denseModel()
	spec := model.Spec
	header := []any{
		uint32(bundleVersion),
		uint64(spec.InputDim), uint64(spec.Hidden), uint64(spec.NumLayers),
		uint64(spec.OutputDim), spec.Seed, uint64(spec.Cell),
		scheme.ColRate, scheme.RowRate,
		float64(scheme.NumRowGroups), float64(scheme.NumColBlocks),
		uint32(e.plan.Options.Format), uint32(e.plan.Options.ValueBits),
		uint32(e.plan.Options.Tile.RowTile), uint32(e.plan.Options.Tile.ColTile),
		uint32(e.plan.Options.Tile.Unroll),
		boolByte(e.plan.Options.Reorder), boolByte(e.plan.Options.EliminateRedundantLoads),
		uint8(0), // fused (retired)
		uint8(e.tuned.Mode), uint32(e.plan.Options.Tile.Placement), e.tuned.Cost,
		uint8(e.quant), uint8(e.precision),
	}
	for _, v := range header {
		if err := binary.Write(w, le, v); err != nil {
			return err
		}
	}
	params := model.Params()
	if err := binary.Write(w, le, uint32(len(params))); err != nil {
		return err
	}
	useBSPC := e.plan.Options.Format == compiler.FormatBSPC
	for _, p := range params {
		if err := binary.Write(w, le, uint32(len(p.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, p.Name); err != nil {
			return err
		}
		// Weight matrices of a quantized deployment ship as scales +
		// integers (kind 2). Requantizing the engine's round-tripped
		// weights is idempotent (see quant.ScaleFor), so the stored
		// integers are exactly the ones Compile produced.
		if e.quant != 0 && p.W.Rows > 1 && p.W.Cols > 1 {
			if err := binary.Write(w, le, uint8(2)); err != nil {
				return err
			}
			if err := writeQuantPayload(w, p.W, e.quant); err != nil {
				return fmt.Errorf("rtmobile: %s: %w", p.Name, err)
			}
			continue
		}
		// Weight matrices of a BSPC deployment ship in BSPC form.
		if useBSPC && p.W.Rows > 1 && p.W.Cols > 1 {
			if err := binary.Write(w, le, uint8(1)); err != nil {
				return err
			}
			b := sparse.NewBSPC(p.W, scheme)
			if err := b.Encode(w, e.plan.Options.ValueBits); err != nil {
				return err
			}
			continue
		}
		if err := binary.Write(w, le, uint8(0)); err != nil {
			return err
		}
		dims := []uint32{uint32(p.W.Rows), uint32(p.W.Cols)}
		for _, d := range dims {
			if err := binary.Write(w, le, d); err != nil {
				return err
			}
		}
		buf := make([]byte, 4*len(p.W.Data))
		for i, v := range p.W.Data {
			le.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// writeQuantPayload encodes one weight matrix as payload kind 2:
// rows u32 | cols u32 | bits u8 | scheme u8 | scaleCount u32 |
// scales f32×scaleCount | integers (int8 for 8-bit, int16 LE otherwise),
// row-major.
func writeQuantPayload(w io.Writer, m *tensor.Matrix, bits int) error {
	le := binary.LittleEndian
	qm, err := quant.Quantize(m, bits, quant.PerRow)
	if err != nil {
		return err
	}
	head := []any{
		uint32(qm.Rows), uint32(qm.Cols), uint8(qm.Bits), uint8(qm.Scheme),
		uint32(len(qm.Scales)),
	}
	for _, v := range head {
		if err := binary.Write(w, le, v); err != nil {
			return err
		}
	}
	for _, s := range qm.Scales {
		if err := binary.Write(w, le, math.Float32bits(s)); err != nil {
			return err
		}
	}
	if bits == 8 {
		buf := make([]byte, len(qm.Q))
		for i, q := range qm.Q {
			buf[i] = byte(int8(q))
		}
		_, err = w.Write(buf)
		return err
	}
	buf := make([]byte, 2*len(qm.Q))
	for i, q := range qm.Q {
		le.PutUint16(buf[2*i:], uint16(int16(q)))
	}
	_, err = w.Write(buf)
	return err
}

// saveVersion writes e as a bundle of the given version: the test encoder
// for 4, the product writer otherwise.
func (e *Engine) saveVersion(w io.Writer, scheme prune.BSP, version int) error {
	if version == bundleVersion {
		return e.saveBundleV4(w, scheme)
	}
	return e.SaveBundleVersion(w, scheme, version)
}
