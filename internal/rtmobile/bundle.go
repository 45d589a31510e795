package rtmobile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
	"rtmobile/internal/quant"
	"rtmobile/internal/sparse"
	"rtmobile/internal/tensor"
)

// Deployment bundles. A compiled engine serializes to a single artifact
// holding the model architecture, the BSP scheme, the compiler options,
// biases, and every weight matrix stored in its deployed format — BSPC
// payloads for BSPC deployments (so the on-disk size benefits from the
// compact format exactly as the device memory does), raw floats otherwise.
// Loading a bundle reconstructs the model and recompiles the plan for a
// target, which is deterministic, so the artifact is complete.
//
// Layout (little-endian): magic "RTMB" | version u32 | spec 6×u64 |
// scheme 4×f64 | format u32 | valueBits u32 | tile 3×u32 |
// reorder u8 | loadelim u8 | fused u8 | [v2+: tuneMode u8 |
// placement u32 | tuneCost f64] | [v3+: quantBits u8] |
// [v4+: precision u8] | paramCount u32 |
// per param: nameLen u32, name, kind u8 (0 raw, 1 bspc, 2 quantized),
// payload.
//
// Version 2 adds the plan cache: the auto-tuner's verdict (mode +
// cost) and the tile's memory placement (dropped by v1), so loading a
// tuned bundle reproduces the tuned plan exactly without re-running the
// search. Version 1 bundles still load (plan cache empty).
//
// The tile words and the plan cache describe the modelled target's kernel
// and how it was chosen; nothing in them selects what the host executes.
// In particular the unroll word is recorded and read back but picks no
// kernel (there is one per shape), and a TuneMeasured record — written by
// the host-timing tuner earlier versions had — loads as the record it is.
//
// Version 3 adds integer weight quantization: the header records the
// deployment's quantization width (0 = float), and quantized deployments
// ship their weight matrices as payload kind 2 — the per-row scales plus
// the raw integers (int8 for 8-bit, int16 little-endian for 12/16-bit),
// exactly the codes the quantized programs are dequantized from. Versions
// 1 and 2 still load (quantization off).
//
// Version 4 adds the precision tier: the header records the kernel tier
// the engine actually ran under, so a reloaded bundle re-selects the same
// kernel family — an exact-tier bundle can never silently pin a fast-tier
// deployment's plan, or vice versa. Versions 1–3 still load (exact tier,
// the historical behavior).
//
// The fused byte once selected a plan that priced each layer's [Wx|Wh] as
// one kernel. No engine ever executed such kernels and the pass is gone:
// writers emit 0, and loaders read the byte and ignore it, so a file that
// carries it set loads as the per-matrix deployment it always ran.

const (
	bundleMagic   = "RTMB"
	bundleVersion = 4
	// maxBundleNameLen bounds a param-name length field so a corrupt
	// bundle cannot drive a multi-gigabyte allocation before the name
	// check fails.
	maxBundleNameLen = 1 << 16
)

// SaveBundle writes the engine's deployment artifact in the current
// default format (version 5, the mmap-loadable section table; see
// bundle5.go). Use SaveBundleVersion to target the legacy v4 stream.
func (e *Engine) SaveBundle(w io.Writer, scheme prune.BSP) error {
	return e.saveBundleV5(w, scheme)
}

// saveBundleV4 writes the legacy (version 4) per-field artifact.
func (e *Engine) saveBundleV4(w io.Writer, scheme prune.BSP) error {
	le := binary.LittleEndian
	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	spec := e.model.Spec
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
	params := e.model.Params()
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

// readQuantPayload decodes a kind-2 payload into dst, dequantizing the
// stored integers through their scales.
func readQuantPayload(r io.Reader, dst *tensor.Matrix) error {
	le := binary.LittleEndian
	var rows, cols, scaleCount uint32
	var bits, scheme uint8
	if err := binary.Read(r, le, &rows); err != nil {
		return fmt.Errorf("reading quant shape: %w", err)
	}
	if err := binary.Read(r, le, &cols); err != nil {
		return fmt.Errorf("reading quant shape: %w", err)
	}
	if int(rows) != dst.Rows || int(cols) != dst.Cols {
		return fmt.Errorf("quant shape %dx%d, want %dx%d", rows, cols, dst.Rows, dst.Cols)
	}
	if err := binary.Read(r, le, &bits); err != nil {
		return fmt.Errorf("reading quant width: %w", err)
	}
	if !compiler.QuantBitsValid(int(bits)) {
		return fmt.Errorf("corrupt quant width %d", bits)
	}
	if err := binary.Read(r, le, &scheme); err != nil {
		return fmt.Errorf("reading quant scheme: %w", err)
	}
	if scheme > uint8(quant.PerRow) {
		return fmt.Errorf("unknown quant scheme %d", scheme)
	}
	if err := binary.Read(r, le, &scaleCount); err != nil {
		return fmt.Errorf("reading quant scale count: %w", err)
	}
	if scaleCount != 1 && scaleCount != rows {
		return fmt.Errorf("corrupt quant scale count %d for %d rows", scaleCount, rows)
	}
	scales := make([]float32, scaleCount)
	for i := range scales {
		var b uint32
		if err := binary.Read(r, le, &b); err != nil {
			return fmt.Errorf("reading quant scales: %w", err)
		}
		scales[i] = math.Float32frombits(b)
		if s := scales[i]; !(s > 0) || math.IsInf(float64(s), 1) {
			return fmt.Errorf("corrupt quant scale %v (want positive and finite)", s)
		}
	}
	n := int(rows) * int(cols)
	elem := 2
	if bits == 8 {
		elem = 1
	}
	buf := make([]byte, elem*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("reading quant values: %w", err)
	}
	for i := 0; i < n; i++ {
		var q int32
		if bits == 8 {
			q = int32(int8(buf[i]))
		} else {
			q = int32(int16(le.Uint16(buf[2*i:])))
		}
		s := scales[0]
		if scaleCount > 1 {
			s = scales[i/int(cols)]
		}
		dst.Data[i] = s * float32(q)
	}
	return nil
}

// LoadBundle reads a deployment artifact and recompiles it for the target.
// It returns the engine and the scheme stored in the bundle.
func LoadBundle(r io.Reader, target *device.Target) (*Engine, prune.BSP, error) {
	le := binary.LittleEndian
	var zero prune.BSP
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, zero, fmt.Errorf("rtmobile: reading bundle magic: %w", err)
	}
	if string(head) != bundleMagic {
		return nil, zero, fmt.Errorf("rtmobile: bad bundle magic %q", head)
	}
	var version uint32
	if err := binary.Read(r, le, &version); err != nil {
		return nil, zero, fmt.Errorf("rtmobile: reading bundle version: %w", err)
	}
	if version == bundleVersion5 {
		// The portable v5 path: pull the whole stream into one arena
		// allocation and parse the section table in place (the same parser
		// MapBundle runs over mapped pages).
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading v5 bundle: %w", err)
		}
		data := make([]byte, 8+len(rest))
		copy(data, head)
		le.PutUint32(data[4:], version)
		copy(data[8:], rest)
		img, err := parseV5(data, target)
		if err != nil {
			return nil, zero, err
		}
		return img.eng, img.scheme, nil
	}
	if version < 1 || version > bundleVersion {
		return nil, zero, fmt.Errorf("rtmobile: unsupported bundle version %d", version)
	}
	var specRaw [6]uint64
	for i := range specRaw {
		if err := binary.Read(r, le, &specRaw[i]); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle model spec: %w", err)
		}
	}
	var schemeRaw [4]float64
	for i := range schemeRaw {
		if err := binary.Read(r, le, &schemeRaw[i]); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle prune scheme: %w", err)
		}
	}
	var format, valueBits, rowTile, colTile, unroll uint32
	for _, p := range []*uint32{&format, &valueBits, &rowTile, &colTile, &unroll} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle compiler options: %w", err)
		}
	}
	var reorder, loadelim, fused uint8 // fused is read past and ignored
	for _, p := range []*uint8{&reorder, &loadelim, &fused} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle compiler flags: %w", err)
		}
	}
	var tuneMode uint8
	var placement uint32
	var tuneCost float64
	if version >= 2 {
		if err := binary.Read(r, le, &tuneMode); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if err := binary.Read(r, le, &placement); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if err := binary.Read(r, le, &tuneCost); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if tuneMode > uint8(TuneMeasured) {
			return nil, zero, fmt.Errorf("rtmobile: unknown tune mode %d", tuneMode)
		}
	}
	var quantBits uint8
	if version >= 3 {
		if err := binary.Read(r, le, &quantBits); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle quantization width: %w", err)
		}
		if quantBits != 0 && !compiler.QuantBitsValid(int(quantBits)) {
			return nil, zero, fmt.Errorf("rtmobile: corrupt quantization width %d", quantBits)
		}
	}
	var precByte uint8
	if version >= 4 {
		if err := binary.Read(r, le, &precByte); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: reading bundle precision tier: %w", err)
		}
		if !compiler.PrecisionValid(compiler.Precision(precByte)) {
			return nil, zero, fmt.Errorf("rtmobile: corrupt precision tier %d", precByte)
		}
	}

	model := nn.NewModel(nn.ModelSpec{
		InputDim: int(specRaw[0]), Hidden: int(specRaw[1]),
		NumLayers: int(specRaw[2]), OutputDim: int(specRaw[3]),
		Seed: specRaw[4], Cell: nn.CellType(specRaw[5]),
	})
	scheme := prune.BSP{
		ColRate: schemeRaw[0], RowRate: schemeRaw[1],
		NumRowGroups: int(schemeRaw[2]), NumColBlocks: int(schemeRaw[3]),
	}

	var count uint32
	if err := binary.Read(r, le, &count); err != nil {
		return nil, zero, fmt.Errorf("rtmobile: reading bundle param count: %w", err)
	}
	params := model.Params()
	if int(count) != len(params) {
		return nil, zero, fmt.Errorf("rtmobile: bundle has %d params, model expects %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(r, le, &nameLen); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: %s: reading name length: %w", p.Name, err)
		}
		// Param names are short dotted identifiers; a huge length means the
		// stream is corrupt, and allocating it blindly would OOM on garbage.
		if nameLen > maxBundleNameLen {
			return nil, zero, fmt.Errorf("rtmobile: %s: corrupt name length %d (max %d)",
				p.Name, nameLen, maxBundleNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: %s: reading name: %w", p.Name, err)
		}
		if string(name) != p.Name {
			return nil, zero, fmt.Errorf("rtmobile: param order mismatch: %q vs %q", name, p.Name)
		}
		var kind uint8
		if err := binary.Read(r, le, &kind); err != nil {
			return nil, zero, fmt.Errorf("rtmobile: %s: reading payload kind: %w", p.Name, err)
		}
		switch kind {
		case 2:
			if quantBits == 0 {
				return nil, zero, fmt.Errorf("rtmobile: %s: quantized payload in an unquantized bundle", p.Name)
			}
			if err := readQuantPayload(r, p.W); err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: %w", p.Name, err)
			}
		case 1:
			b, err := sparse.DecodeBSPC(r)
			if err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: %w", p.Name, err)
			}
			dense := b.Dense()
			if dense.Rows != p.W.Rows || dense.Cols != p.W.Cols {
				return nil, zero, fmt.Errorf("rtmobile: %s shape %dx%d, want %dx%d",
					p.Name, dense.Rows, dense.Cols, p.W.Rows, p.W.Cols)
			}
			p.W.CopyFrom(dense)
		case 0:
			var rows, cols uint32
			if err := binary.Read(r, le, &rows); err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: reading shape: %w", p.Name, err)
			}
			if err := binary.Read(r, le, &cols); err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: reading shape: %w", p.Name, err)
			}
			if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
				return nil, zero, fmt.Errorf("rtmobile: %s shape mismatch", p.Name)
			}
			buf := make([]byte, 4*rows*cols)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: reading weights: %w", p.Name, err)
			}
			for i := range p.W.Data {
				p.W.Data[i] = math.Float32frombits(le.Uint32(buf[4*i:]))
			}
		default:
			return nil, zero, fmt.Errorf("rtmobile: unknown payload kind %d", kind)
		}
	}

	eng, err := Compile(model, scheme, DeployConfig{
		Target: target, Format: compiler.Format(format),
		DisableReorder: reorder == 0, DisableLoadElim: loadelim == 0,
		Quant:     int(quantBits),
		Precision: compiler.Precision(precByte),
		Tile: compiler.TileConfig{
			RowTile: int(rowTile), ColTile: int(colTile), Unroll: int(unroll),
			Placement: compiler.Placement(placement),
		},
	})
	if err != nil {
		return nil, zero, err
	}
	// Restore the plan cache: the bundle's tile config is already the tuned
	// one, so the loaded engine reports the original search verdict without
	// ever re-running the search.
	eng.tuned = TuneRecord{Mode: TuneMode(tuneMode), Cost: tuneCost}
	return eng, scheme, nil
}
