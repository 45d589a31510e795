package rtmobile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"rtmobile/internal/compiler"
	"rtmobile/internal/nn"
	"rtmobile/internal/prune"
)

// Bundle v5: the section-table format, and the only one this tree writes
// or reads.
// It stores what an engine holds — spec, biases, packed programs — and
// nothing else: the flat arrays every inference entry point executes
// (values or quantized codes and their scales, column indices, segment
// descriptors, row lists) and the params no program covers (the biases, a
// 1-wide matrix) as raw little-endian sections with 64-byte aligned
// payloads, plus one JSON metadata section carrying the model spec, the
// compiled Plan (including the tuned plan cache), and the section
// directory of each param and program. A param a program covers keeps its
// directory entry (name, shape) with section 0: its weights are the
// program's values, and Dense re-derives them when ReadBundle reads the
// deployment back.
// MapBundle mmaps the file and aliases the sections in place: no per-weight
// decode, no repack, no recompile. The one exception is a quantized
// program's codes, dequantized once into float32 values at load (quantized
// programs run the float32 kernels); its index sections are still aliased.
//
// Files written before programs were the deployment also carry a dense
// section for every covered param; both readers ignore it. A file whose
// programs no engine runs (fused [Wx|Wh] programs, per-block lowerings) or
// whose plan does not price them is refused (bundle.go).
//
// Layout (little-endian):
//
//	magic "RTMB" | version u32 = 5 | sectionCount u32 |
//	directory: sectionCount × { id u32 | offset u64 | length u64 | crc32 u32 } |
//	dirCRC u32 (IEEE CRC-32 of the directory bytes) |
//	payloads, each at its stated absolute offset, 64-byte aligned,
//	zero padding between
//
// Section 1 is always the JSON metadata; all other ids are opaque handles
// the metadata references. Numeric payloads are little-endian flat arrays:
// f32 and i32 are 4 bytes per element, i16 is 2, i8 is 1. Offsets are
// absolute from the file start and multiples of 64 so that any element
// type's natural alignment is satisfied both under mmap (page-aligned
// base) and in the fallback arena. Big-endian hosts and purego builds
// cannot alias and fall back to copy-decoding each section (same format,
// same validation, one allocation per section).

const (
	// bundleVersion5 is the section-table format version.
	bundleVersion5 = 5
	// v5Align is the payload alignment contract.
	v5Align = 64
	// v5MaxSections bounds the section count a directory may declare, so a
	// corrupt header cannot drive a huge directory allocation.
	v5MaxSections = 1 << 16
	// v5SecMeta is the JSON metadata section's fixed id.
	v5SecMeta = 1
)

// v5ParamMeta locates one model parameter's raw f32 section; Section 0
// means a program carries the param.
type v5ParamMeta struct {
	Name    string `json:"name"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Section uint32 `json:"sec"`
}

// v5ProgramMeta locates one packed program's sections (0 = absent) and
// carries its scalar header fields.
type v5ProgramMeta struct {
	Name      string          `json:"name"`
	Rows      int             `json:"rows"`
	Cols      int             `json:"cols"`
	Format    compiler.Format `json:"format"`
	ValueBits int             `json:"value_bits"`
	// Tier is only read: writers that still had a second kernel tier
	// recorded 1 on a program deployed on the fast tier (fastTier), and
	// this writer omits the key.
	Tier uint8 `json:"precision,omitempty"`
	Bits int   `json:"bits"`
	// Scheme and NumScales record the scale layout, which is always
	// scaleLayout(Bits, Rows).
	Scheme    int `json:"scheme"`
	NumScales int `json:"num_scales"`

	SecVals     uint32 `json:"sec_vals,omitempty"`
	SecQVals    uint32 `json:"sec_qvals,omitempty"`
	SecScales   uint32 `json:"sec_scales,omitempty"`
	SecColIdx   uint32 `json:"sec_colidx,omitempty"`
	SecSegs     uint32 `json:"sec_segs,omitempty"`
	SecRows     uint32 `json:"sec_rows,omitempty"`
	SecLaneSegs uint32 `json:"sec_lane_segs,omitempty"`
	SecLaneRows uint32 `json:"sec_lane_rows,omitempty"`
}

// fastTier is the Tier a program deployed on the removed fast
// (float32-accumulation) kernel tier records.
const fastTier = 1

// scaleLayout is the (scheme, num_scales) pair a v5 program records: one
// scale per row (scheme 1) on a quantized program, none on a float one.
func scaleLayout(bits, rows int) (scheme, numScales int) {
	if bits == 0 {
		return 0, 0
	}
	return 1, rows
}

// v5Meta is the JSON metadata section: the spec, scheme, plan cache and
// quantization width, the full compiled Plan (so a mapped load skips
// Compile entirely, and whose options and thread chunks name the target)
// and the param/program section directories.
type v5Meta struct {
	Spec      nn.ModelSpec    `json:"spec"`
	Scheme    prune.BSP       `json:"scheme"`
	TuneMode  uint8           `json:"tune_mode"`
	TuneCost  float64         `json:"tune_cost"`
	QuantBits int             `json:"quant_bits"`
	Plan      *compiler.Plan  `json:"plan"`
	Params    []v5ParamMeta   `json:"params"`
	Programs  []v5ProgramMeta `json:"programs"`
}

// --- writer --------------------------------------------------------------

// v5Writer accumulates sections before the single sequential emit.
type v5Writer struct {
	ids      []uint32
	payloads [][]byte
	next     uint32
}

func newV5Writer() *v5Writer { return &v5Writer{next: v5SecMeta + 1} }

// add registers a payload and returns its section id.
func (w *v5Writer) add(payload []byte) uint32 {
	id := w.next
	w.next++
	w.ids = append(w.ids, id)
	w.payloads = append(w.payloads, payload)
	return id
}

func encodeF32(src []float32) []byte {
	buf := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func encodeI32(src []int32) []byte {
	buf := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return buf
}

func encodeI16(src []int16) []byte {
	buf := make([]byte, 2*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	return buf
}

func encodeI8(src []int8) []byte {
	buf := make([]byte, len(src))
	for i, v := range src {
		buf[i] = byte(v)
	}
	return buf
}

// align64 rounds n up to the next multiple of v5Align.
func align64(n uint64) uint64 { return (n + v5Align - 1) &^ uint64(v5Align-1) }

// SaveBundleVersion writes the engine's deployment artifact in the given
// format version, which must be 5.
func (e *Engine) SaveBundleVersion(w io.Writer, scheme prune.BSP, version int) error {
	if version != bundleVersion5 {
		return fmt.Errorf("rtmobile: unsupported bundle version %d (this writer emits 5)", version)
	}
	return e.SaveBundle(w, scheme)
}

// SaveBundle writes the engine's deployment artifact (version 5).
func (e *Engine) SaveBundle(w io.Writer, scheme prune.BSP) error {
	vw := newV5Writer()
	meta := v5Meta{
		Spec:      e.shell.Spec,
		Scheme:    scheme,
		TuneMode:  uint8(e.tuned.Mode),
		TuneCost:  e.tuned.Cost,
		QuantBits: e.quant,
		Plan:      e.plan,
	}

	// Param sections: the storage the shell holds, i.e. the params no
	// program covers, post-rounding. A covered param is written as its
	// directory entry alone.
	for _, p := range e.shell.Params() {
		pm := v5ParamMeta{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols}
		if p.W.Data != nil {
			pm.Section = vw.add(encodeF32(p.W.Data))
		}
		meta.Params = append(meta.Params, pm)
	}

	// Packed program sections: the flat arrays of the very programs the
	// engine executes, so a mapped load serves from them in place.
	for _, p := range e.progs {
		s := p.Sections()
		pm := v5ProgramMeta{
			Name: s.Name, Rows: s.Rows, Cols: s.Cols,
			Format: s.Format, ValueBits: s.ValueBits, Bits: s.Bits,
			SecColIdx:   vw.add(encodeI32(s.ColIdx)),
			SecSegs:     vw.add(encodeI32(s.SegWords)),
			SecRows:     vw.add(encodeI32(s.RowIdx)),
			SecLaneSegs: vw.add(encodeI32(s.LaneSegCounts)),
			SecLaneRows: vw.add(encodeI32(s.LaneRowCounts)),
		}
		pm.Scheme, pm.NumScales = scaleLayout(s.Bits, s.Rows)
		switch {
		case s.Bits == 8:
			pm.SecQVals = vw.add(encodeI8(s.Vals8))
			pm.SecScales = vw.add(encodeF32(s.Scales))
		case s.Bits != 0:
			pm.SecQVals = vw.add(encodeI16(s.Vals16))
			pm.SecScales = vw.add(encodeF32(s.Scales))
		default:
			pm.SecVals = vw.add(encodeF32(s.Vals))
		}
		meta.Programs = append(meta.Programs, pm)
	}

	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return err
	}

	// Assemble the directory: metadata first, then the payload sections in
	// registration order, each at the next 64-byte aligned offset.
	ids := append([]uint32{v5SecMeta}, vw.ids...)
	payloads := append([][]byte{metaJSON}, vw.payloads...)
	headerSize := uint64(4 + 4 + 4 + 24*len(ids) + 4)
	le := binary.LittleEndian
	dir := make([]byte, 24*len(ids))
	off := align64(headerSize)
	for i, p := range payloads {
		d := dir[24*i:]
		le.PutUint32(d[0:], ids[i])
		le.PutUint64(d[4:], off)
		le.PutUint64(d[12:], uint64(len(p)))
		le.PutUint32(d[20:], crc32.ChecksumIEEE(p))
		off = align64(off + uint64(len(p)))
	}

	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	var head [8]byte
	le.PutUint32(head[0:], bundleVersion5)
	le.PutUint32(head[4:], uint32(len(ids)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	if _, err := w.Write(dir); err != nil {
		return err
	}
	var dcrc [4]byte
	le.PutUint32(dcrc[:], crc32.ChecksumIEEE(dir))
	if _, err := w.Write(dcrc[:]); err != nil {
		return err
	}
	// Sequential payload emit with zero padding up to each aligned offset.
	pos := headerSize
	var pad [v5Align]byte
	for i, p := range payloads {
		target := le.Uint64(dir[24*i+4:])
		for pos < target {
			n := target - pos
			if n > v5Align {
				n = v5Align
			}
			if _, err := w.Write(pad[:n]); err != nil {
				return err
			}
			pos += n
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
		pos += uint64(len(p))
	}
	return nil
}
