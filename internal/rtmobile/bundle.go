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
// programs are the deployment, and serves nothing else (MapBundle);
// ReadBundle still reads every older version back into the dense weights
// and recorded options, for `rtmobile deploy -in` to lower once. The
// decoder validates the header's spec before building anything from it
// and allocates each weight matrix only as its payload arrives, so a
// corrupt file costs an error, not a panic or an allocation the file
// cannot back.
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
// and the tile's memory placement; a version-1 file reads with the cache
// empty. The tile words and the plan cache describe the modelled target's
// kernel and how it was chosen; nothing in them selects what the host
// executes. In particular the unroll word is read back but picks no kernel
// (there is one per shape), and a TuneMeasured record — written by the
// host-timing tuner earlier versions had — keeps its tile untuned.
//
// Version 3 added integer weight quantization: the header records the
// width (0 = float), and a quantized file ships its weight matrices as
// payload kind 2 — per-row scales plus the raw integers (int8 for 8-bit,
// int16 little-endian for 12/16-bit). Version 4 added the precision tier;
// versions 1–3 read as the exact tier.
//
// The fused byte once selected a plan that priced each layer's [Wx|Wh] as
// one kernel. No engine ever executed such kernels and the pass is gone:
// the reader reads past the byte, so a file that carries it set re-deploys
// as the per-matrix deployment it always ran.

const (
	bundleMagic = "RTMB"
	// bundleVersion is the newest per-field version ReadBundle reads.
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

// ReadBundle decodes a deployment bundle of any version into the dense
// model its programs were lowered from, the scheme it records, and the
// DeployConfig it was deployed with, Target set to target. Compile(model,
// scheme, cfg) then lowers it again: it is how `rtmobile deploy -in`
// re-deploys a file MapBundle refuses, or a deployment at another
// quantization width or kernel tier. No tuning verdict is copied: a
// recorded analytic search is armed again (cfg.AutoTuneTiling; the search
// is deterministic), and any other record keeps its tile untuned.
//
// The target must compute at the width the file records (fp16 or fp32,
// see valueBits): Compile takes the width from the target, and lowering a
// deployment for another width would round its weights again.
func ReadBundle(r io.Reader, target *device.Target) (model *nn.Model, scheme prune.BSP, cfg DeployConfig, err error) {
	fail := func(err error) (*nn.Model, prune.BSP, DeployConfig, error) {
		return nil, prune.BSP{}, DeployConfig{}, err
	}
	if target == nil {
		return fail(fmt.Errorf("rtmobile: ReadBundle target is required"))
	}
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return fail(fmt.Errorf("rtmobile: reading bundle magic: %w", err))
	}
	if string(head[:4]) != bundleMagic {
		return fail(fmt.Errorf("rtmobile: bad bundle magic %q", head[:4]))
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return fail(fmt.Errorf("rtmobile: reading bundle version: %w", err))
	}
	var bits int
	switch version := binary.LittleEndian.Uint32(head[4:]); {
	case version == bundleVersion5:
		var rest []byte
		if rest, err = io.ReadAll(r); err != nil {
			return fail(fmt.Errorf("rtmobile: reading v5 bundle: %w", err))
		}
		model, scheme, cfg, bits, err = readV5(append(head, rest...))
	case version >= 1 && version <= bundleVersion:
		model, scheme, cfg, bits, err = readV4(r, version)
	default:
		err = fmt.Errorf("rtmobile: unsupported bundle version %d", version)
	}
	if err != nil {
		return fail(err)
	}
	if want := valueBits(target); bits != want {
		return fail(fmt.Errorf("rtmobile: bundle computes in %d-bit values and target %s in %d-bit ones: lower it for a target of its own width",
			bits, target.Name, want))
	}
	cfg.Target = target
	return model, scheme, cfg, nil
}

// recordedConfig is the DeployConfig a bundle's recorded options and plan
// cache describe (Target unset).
func recordedConfig(opt compiler.Options, quantBits int, tuned TuneMode) DeployConfig {
	return DeployConfig{
		Format:          opt.Format,
		DisableReorder:  !opt.Reorder,
		DisableLoadElim: !opt.EliminateRedundantLoads,
		AutoTuneTiling:  tuned == TuneAnalytic,
		Tile:            opt.Tile,
		Quant:           quantBits,
		Precision:       opt.Precision,
	}
}

// readV4 decodes the rest of a version-1–4 stream, after its magic and
// version, into the dense model, the scheme, the recorded DeployConfig and
// the recorded value width.
func readV4(r io.Reader, version uint32) (*nn.Model, prune.BSP, DeployConfig, int, error) {
	le := binary.LittleEndian
	var zero prune.BSP
	var specRaw [6]uint64
	for i := range specRaw {
		if err := binary.Read(r, le, &specRaw[i]); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle model spec: %w", err)
		}
	}
	var schemeRaw [4]float64
	for i := range schemeRaw {
		if err := binary.Read(r, le, &schemeRaw[i]); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle prune scheme: %w", err)
		}
	}
	var format, valueBits, rowTile, colTile, unroll uint32
	for _, p := range []*uint32{&format, &valueBits, &rowTile, &colTile, &unroll} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle compiler options: %w", err)
		}
	}
	var reorder, loadelim, fused uint8 // fused is read past and ignored
	for _, p := range []*uint8{&reorder, &loadelim, &fused} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle compiler flags: %w", err)
		}
	}
	var tuneMode uint8
	var placement uint32
	var tuneCost float64
	if version >= 2 {
		if err := binary.Read(r, le, &tuneMode); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if err := binary.Read(r, le, &placement); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if err := binary.Read(r, le, &tuneCost); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle plan cache: %w", err)
		}
		if tuneMode > uint8(TuneMeasured) {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: unknown tune mode %d", tuneMode)
		}
	}
	var quantBits uint8
	if version >= 3 {
		if err := binary.Read(r, le, &quantBits); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle quantization width: %w", err)
		}
		if quantBits != 0 && !compiler.QuantBitsValid(int(quantBits)) {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: corrupt quantization width %d", quantBits)
		}
	}
	var precByte uint8
	if version >= 4 {
		if err := binary.Read(r, le, &precByte); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle precision tier: %w", err)
		}
		if !compiler.PrecisionValid(compiler.Precision(precByte)) {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: corrupt precision tier %d", precByte)
		}
	}

	// Weight storage is allocated per param as its payload arrives.
	model, err := specShell(nn.ModelSpec{
		InputDim: int(specRaw[0]), Hidden: int(specRaw[1]),
		NumLayers: int(specRaw[2]), OutputDim: int(specRaw[3]),
		Seed: specRaw[4], Cell: nn.CellType(specRaw[5]),
	})
	if err != nil {
		return nil, zero, DeployConfig{}, 0, err
	}
	scheme := prune.BSP{
		ColRate: schemeRaw[0], RowRate: schemeRaw[1],
		NumRowGroups: int(schemeRaw[2]), NumColBlocks: int(schemeRaw[3]),
	}

	var count uint32
	if err := binary.Read(r, le, &count); err != nil {
		return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: reading bundle param count: %w", err)
	}
	params := model.Params()
	if int(count) != len(params) {
		return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: bundle has %d params, model expects %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(r, le, &nameLen); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading name length: %w", p.Name, err)
		}
		// Param names are short dotted identifiers; a huge length means the
		// stream is corrupt, and allocating it blindly would OOM on garbage.
		if nameLen > maxBundleNameLen {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: corrupt name length %d (max %d)",
				p.Name, nameLen, maxBundleNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading name: %w", p.Name, err)
		}
		if string(name) != p.Name {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: param order mismatch: %q vs %q", name, p.Name)
		}
		var kind uint8
		if err := binary.Read(r, le, &kind); err != nil {
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading payload kind: %w", p.Name, err)
		}
		switch kind {
		case 2:
			if quantBits == 0 {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: quantized payload in an unquantized bundle", p.Name)
			}
			if err := readQuantPayload(r, p.W); err != nil {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: %w", p.Name, err)
			}
		case 1:
			b, err := sparse.DecodeBSPC(r)
			if err != nil {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: %w", p.Name, err)
			}
			if b.Rows != p.W.Rows || b.Cols != p.W.Cols {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s shape %dx%d, want %dx%d",
					p.Name, b.Rows, b.Cols, p.W.Rows, p.W.Cols)
			}
			p.W.Data = b.Dense().Data
		case 0:
			var rows, cols uint32
			if err := binary.Read(r, le, &rows); err != nil {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading shape: %w", p.Name, err)
			}
			if err := binary.Read(r, le, &cols); err != nil {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading shape: %w", p.Name, err)
			}
			if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s shape mismatch", p.Name)
			}
			buf, err := readPayload(r, 4*p.W.Rows*p.W.Cols)
			if err != nil {
				return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: %s: reading weights: %w", p.Name, err)
			}
			p.W.Data = make([]float32, p.W.Rows*p.W.Cols)
			for i := range p.W.Data {
				p.W.Data[i] = math.Float32frombits(le.Uint32(buf[4*i:]))
			}
		default:
			return nil, zero, DeployConfig{}, 0, fmt.Errorf("rtmobile: unknown payload kind %d", kind)
		}
	}

	opt := compiler.Options{
		Format:                  compiler.Format(format),
		Reorder:                 reorder != 0,
		EliminateRedundantLoads: loadelim != 0,
		Tile: compiler.TileConfig{
			RowTile: int(rowTile), ColTile: int(colTile), Unroll: int(unroll),
			Placement: compiler.Placement(placement),
		},
		Precision: compiler.Precision(precByte),
	}
	return model, scheme, recordedConfig(opt, int(quantBits), TuneMode(tuneMode)), int(valueBits), nil
}
