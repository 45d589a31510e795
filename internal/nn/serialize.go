package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model serialization. Format (little-endian):
//
//	magic "RTMO" | version u32 | spec (6×u64) | paramCount u32 |
//	for each param: nameLen u32, name, rows u32, cols u32, rows*cols f32
//
// A hand-rolled format (rather than gob) keeps the on-disk layout stable
// and inspectable, and loads without reflection.

const (
	magic   = "RTMO"
	version = 2
)

// Save writes the model weights to w.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(v uint32) error { return binary.Write(w, le, v) }
	if err := writeU32(version); err != nil {
		return err
	}
	spec := []uint64{
		uint64(m.Spec.InputDim), uint64(m.Spec.Hidden),
		uint64(m.Spec.NumLayers), uint64(m.Spec.OutputDim), m.Spec.Seed,
		uint64(m.Spec.Cell),
	}
	for _, v := range spec {
		if err := binary.Write(w, le, v); err != nil {
			return err
		}
	}
	params := m.Params()
	if err := writeU32(uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeU32(uint32(len(p.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, p.Name); err != nil {
			return err
		}
		if err := writeU32(uint32(p.W.Rows)); err != nil {
			return err
		}
		if err := writeU32(uint32(p.W.Cols)); err != nil {
			return err
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

// Load reads a model saved by Save, reconstructing the architecture from
// the stored spec.
func Load(r io.Reader) (*Model, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("nn: bad magic %q", head)
	}
	le := binary.LittleEndian
	var ver uint32
	if err := binary.Read(r, le, &ver); err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("nn: unsupported version %d", ver)
	}
	var spec [6]uint64
	for i := range spec {
		if err := binary.Read(r, le, &spec[i]); err != nil {
			return nil, err
		}
	}
	ms := ModelSpec{
		InputDim: int(spec[0]), Hidden: int(spec[1]),
		NumLayers: int(spec[2]), OutputDim: int(spec[3]), Seed: spec[4],
		Cell: CellType(spec[5]),
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	m := NewModel(ms)
	var count uint32
	if err := binary.Read(r, le, &count); err != nil {
		return nil, err
	}
	params := m.Params()
	if int(count) != len(params) {
		return nil, fmt.Errorf("nn: param count %d, model expects %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(r, le, &nameLen); err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		if string(name) != p.Name {
			return nil, fmt.Errorf("nn: param order mismatch: file has %q, model expects %q", name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(r, le, &rows); err != nil {
			return nil, err
		}
		if err := binary.Read(r, le, &cols); err != nil {
			return nil, err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return nil, fmt.Errorf("nn: %s shape %dx%d, model expects %dx%d", p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		buf := make([]byte, 4*rows*cols)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		for i := range p.W.Data {
			p.W.Data[i] = math.Float32frombits(le.Uint32(buf[4*i:]))
		}
	}
	return m, nil
}
