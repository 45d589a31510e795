package rtmobile

import (
	"bytes"
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

// Deployment bundles, versions 1–4: the per-field weight streams earlier
// writers produced. This tree writes only version 5 (bundle5.go), whose
// programs are the deployment; LoadBundle still reads every older version,
// rebuilding the weights, lowering them once with Compile, and keeping only
// what any engine keeps — spec, biases, programs. It validates the header's
// spec before building anything from it and allocates each weight matrix
// only as its payload arrives, so a corrupt file costs an error, not a
// panic or an allocation the file cannot back.
//
// Layout (little-endian): magic "RTMB" | version u32 | spec 6×u64 |
// scheme 4×f64 | format u32 | valueBits u32 | tile 3×u32 |
// reorder u8 | loadelim u8 | fused u8 | [v2+: tuneMode u8 |
// placement u32 | tuneCost f64] | [v3+: quantBits u8] |
// [v4+: precision u8] | paramCount u32 |
// per param: nameLen u32, name, kind u8 (0 raw, 1 bspc, 2 quantized),
// payload.
//
// Version 2 added the plan cache: the auto-tuner's verdict (mode + cost)
// and the tile's memory placement, so a tuned bundle reloads with its tuned
// plan and never re-runs the search; a version-1 file loads with the cache
// empty. The tile words and the plan cache describe the modelled target's
// kernel and how it was chosen; nothing in them selects what the host
// executes. In particular the unroll word is read back but picks no kernel
// (there is one per shape), and a TuneMeasured record — written by the
// host-timing tuner earlier versions had — loads as the record it is.
//
// Version 3 added integer weight quantization: the header records the
// width (0 = float), and a quantized file ships its weight matrices as
// payload kind 2 — per-row scales plus the raw integers (int8 for 8-bit,
// int16 little-endian for 12/16-bit). Version 4 added the precision tier,
// so a reloaded file re-selects the kernel tier it ran under; versions 1–3
// load on the exact tier.
//
// The fused byte once selected a plan that priced each layer's [Wx|Wh] as
// one kernel. No engine ever executed such kernels and the pass is gone:
// loaders read the byte and ignore it, so a file that carries it set loads
// as the per-matrix deployment it always ran.

const (
	bundleMagic = "RTMB"
	// bundleVersion is the newest per-field version LoadBundle reads.
	bundleVersion = 4
	// maxBundleNameLen bounds a param-name length field so a corrupt
	// bundle cannot drive a multi-gigabyte allocation before the name
	// check fails.
	maxBundleNameLen = 1 << 16
)

// readPayload reads exactly n bytes, growing its buffer as they arrive, so a
// corrupt shape cannot allocate more than the stream actually holds.
func readPayload(r io.Reader, n int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(n))); err != nil {
		return nil, err
	}
	if buf.Len() < n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// readQuantPayload decodes a kind-2 payload into dst, allocating its
// storage and dequantizing the stored integers through their scales.
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
	buf, err := readPayload(r, elem*n)
	if err != nil {
		return fmt.Errorf("reading quant values: %w", err)
	}
	dst.Data = make([]float32, n)
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

// LoadBundle reads a deployment artifact of any version for the target and
// returns the engine and the scheme stored in the bundle. A version-5
// stream is read into one arena and parsed as MapBundle parses a mapping;
// versions 1–4 are decoded and compiled.
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

	// Weight storage is allocated per param as its payload arrives.
	model, err := specShell(nn.ModelSpec{
		InputDim: int(specRaw[0]), Hidden: int(specRaw[1]),
		NumLayers: int(specRaw[2]), OutputDim: int(specRaw[3]),
		Seed: specRaw[4], Cell: nn.CellType(specRaw[5]),
	})
	if err != nil {
		return nil, zero, err
	}
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
			if b.Rows != p.W.Rows || b.Cols != p.W.Cols {
				return nil, zero, fmt.Errorf("rtmobile: %s shape %dx%d, want %dx%d",
					p.Name, b.Rows, b.Cols, p.W.Rows, p.W.Cols)
			}
			p.W.Data = b.Dense().Data
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
			buf, err := readPayload(r, 4*p.W.Rows*p.W.Cols)
			if err != nil {
				return nil, zero, fmt.Errorf("rtmobile: %s: reading weights: %w", p.Name, err)
			}
			p.W.Data = make([]float32, p.W.Rows*p.W.Cols)
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
