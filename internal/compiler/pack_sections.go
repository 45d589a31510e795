package compiler

import (
	"fmt"
	"math"

	"rtmobile/internal/quant"
)

// Packed-program section serialization. The bundle v5 format stores a
// PackedProgram as raw little-endian flat arrays — the values, the column
// indices, the segment descriptors, the row lists — so a mapped bundle can
// reconstruct an executable program whose slices alias read-only file pages
// with no per-weight decode and no repack. PackedSections is the exchange
// form: the flat arrays plus the scalar header fields. Sections() flattens a
// program into it; NewPackedFromSections rebuilds a program from it,
// borrowing the big arrays zero-copy and validating every descriptor up
// front so the unchecked hot-path kernels (run gathers x[c] without
// bounds checks) can never read out of range even from a corrupt or
// adversarial bundle.
//
// The segments are stored in lanes: a table of segment counts and one of
// row counts, one entry per lane, with each segment's RowOff relative to its
// lane's rows. A program writes one lane. Files written while the lowering
// still cut every program into the modelled target's thread lanes hold one
// lane per thread; NewPackedFromSections rebases each lane's RowOff into the
// one list, so they run as their lanes did, lane after lane — bit for bit,
// since every row is one dot whatever list it sits in.
//
// The integer width of a quantized program is a property of these sections
// only. Sections() re-derives each code as ClampRound(v/scale): a value is
// scale·float32(q), one float32 rounding away from the exact product, so
// v/scale is within qmax·2⁻²⁴ ≪ ½ of q and rounding returns q. Loading
// dequantizes the codes back into one fresh []float32 (a float program's
// values stay borrowed).

// segWordsPerSeg is the serialized width of one PackedSeg: six int32 words
// (kind, nc, arg, valoff, rowoff, nr).
const segWordsPerSeg = 6

// PackedSections is the flat serialized form of a packed program. Exactly
// one of Vals (float program) or Vals8/Vals16+Scales (quantized program,
// by Bits) is populated.
type PackedSections struct {
	Name       string
	Rows, Cols int
	Format     Format
	ValueBits  int

	// Bits is 0 for a float program; 8, 12, or 16 selects Vals8/Vals16
	// storage with one scale per row.
	Bits int

	Vals   []float32 // float dot payloads (Bits == 0)
	Vals8  []int8    // quantized payloads (Bits == 8)
	Vals16 []int16   // quantized payloads (Bits == 12 or 16)
	Scales []float32 // per-row scales (quantized programs; len == Rows)

	ColIdx []int32 // all gather indices
	// SegWords serializes every lane's segment descriptors, lane-major,
	// segWordsPerSeg int32 words each. LaneSegCounts[t] segments belong to
	// lane t; LaneRowCounts[t] entries of RowIdx belong to lane t. Sections
	// writes one lane.
	SegWords      []int32
	RowIdx        []int32
	LaneSegCounts []int32
	LaneRowCounts []int32
}

// RowsOnce reports whether every output row is produced by at most one dot.
// That is what makes accumulating the program into y tensor.MatVecAdd's
// per-row contract (one float64 chain, one rounding, one add); the
// per-block BSPC lowering of earlier bundle writers listed a row once per
// column block and fails it.
func (s *PackedSections) RowsOnce() bool {
	if s.Rows < 0 {
		return false
	}
	seen := make([]bool, s.Rows)
	for _, r := range s.RowIdx {
		if r < 0 || int(r) >= s.Rows || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// Sections flattens the program for serialization. The flat arrays alias
// the program's storage (treat both as immutable afterwards), except a
// quantized program's codes, which are re-derived from its values.
func (p *PackedProgram) Sections() *PackedSections {
	s := &PackedSections{
		Name: p.Name, Rows: p.Rows, Cols: p.Cols,
		Format: p.Format, ValueBits: p.ValueBits,
		Bits: p.Bits, Scales: p.Scales, ColIdx: p.ColIdx,
	}
	switch p.Bits {
	case 0:
		s.Vals = p.Vals
	case 8:
		s.Vals8 = codes[int8](p)
	default:
		s.Vals16 = codes[int16](p)
	}
	s.SegWords = make([]int32, 0, len(p.Segs)*segWordsPerSeg)
	for i := range p.Segs {
		sg := &p.Segs[i]
		s.SegWords = append(s.SegWords, int32(sg.Kind), sg.NC, sg.Arg, sg.ValOff, sg.RowOff, sg.NR)
	}
	s.RowIdx = p.RowIdx
	s.LaneSegCounts = []int32{int32(len(p.Segs))}
	s.LaneRowCounts = []int32{int32(len(p.RowIdx))}
	return s
}

// codes re-derives a quantized program's integer codes from its values.
func codes[T int8 | int16](p *PackedProgram) []T {
	q, qmax := make([]T, len(p.Vals)), quant.QMax(p.Bits)
	p.forEachRowVals(func(_ *PackedSeg, row int32, off int, vals []float32) {
		s := float64(p.Scales[row])
		for i, v := range vals {
			q[off+i] = T(quant.ClampRound(float64(v)/s, qmax))
		}
	})
	return q
}

// dequantize sets p.Vals to Scales[row]·float32(q) for the stored codes q —
// quant.QMatrix.Dequantize's formula, one rounding per weight.
func dequantize[T int8 | int16](p *PackedProgram, q []T) {
	p.Vals = make([]float32, len(q))
	p.forEachRowVals(func(_ *PackedSeg, row int32, off int, vals []float32) {
		s := p.Scales[row]
		for i := range vals {
			vals[i] = s * float32(q[off+i])
		}
	})
}

// segs reconstructs the one segment list from the flat lane arrays,
// validating every segment descriptor against the program bounds and
// rebasing each lane's RowOff into s.RowIdx. numVals is the length of
// whichever vals array the program carries. Work is O(segments), never
// O(weights).
func (s *PackedSections) segs(numVals int) ([]PackedSeg, error) {
	if s.Rows < 0 || s.Cols < 0 {
		return nil, fmt.Errorf("compiler: sections %s: negative shape %dx%d", s.Name, s.Rows, s.Cols)
	}
	if len(s.LaneSegCounts) != len(s.LaneRowCounts) {
		return nil, fmt.Errorf("compiler: sections %s: %d lane seg counts vs %d lane row counts",
			s.Name, len(s.LaneSegCounts), len(s.LaneRowCounts))
	}
	// Totals must tile the flat arrays exactly.
	var totSegs, totRows int64
	for i := range s.LaneSegCounts {
		if s.LaneSegCounts[i] < 0 || s.LaneRowCounts[i] < 0 {
			return nil, fmt.Errorf("compiler: sections %s: negative lane count", s.Name)
		}
		totSegs += int64(s.LaneSegCounts[i])
		totRows += int64(s.LaneRowCounts[i])
	}
	if totSegs*segWordsPerSeg != int64(len(s.SegWords)) {
		return nil, fmt.Errorf("compiler: sections %s: %d segments need %d words, have %d",
			s.Name, totSegs, totSegs*segWordsPerSeg, len(s.SegWords))
	}
	if totRows != int64(len(s.RowIdx)) {
		return nil, fmt.Errorf("compiler: sections %s: lane row counts total %d, row list has %d",
			s.Name, totRows, len(s.RowIdx))
	}
	for _, r := range s.RowIdx {
		if r < 0 || int(r) >= s.Rows {
			return nil, fmt.Errorf("compiler: sections %s: output row %d out of range [0,%d)",
				s.Name, r, s.Rows)
		}
	}
	// Every gather index feeds an unchecked x[c] in run — reject any
	// out-of-range column before the program can execute.
	for _, c := range s.ColIdx {
		if c < 0 || int(c) >= s.Cols {
			return nil, fmt.Errorf("compiler: sections %s: gather column %d out of range [0,%d)",
				s.Name, c, s.Cols)
		}
	}
	segs := make([]PackedSeg, 0, totSegs)
	rowBase := int32(0)
	for t := range s.LaneSegCounts {
		nRows := s.LaneRowCounts[t]
		for range s.LaneSegCounts[t] {
			i := len(segs)
			w := s.SegWords[i*segWordsPerSeg : (i+1)*segWordsPerSeg]
			sg := PackedSeg{NC: w[1], Arg: w[2], ValOff: w[3], RowOff: w[4], NR: w[5]}
			if w[0] != int32(segGather) && w[0] != int32(segStream) {
				return nil, fmt.Errorf("compiler: sections %s seg %d: unknown kind %d", s.Name, i, w[0])
			}
			sg.Kind = uint8(w[0])
			if sg.NC < 0 || sg.NR < 0 || sg.Arg < 0 || sg.ValOff < 0 || sg.RowOff < 0 {
				return nil, fmt.Errorf("compiler: sections %s seg %d: negative field", s.Name, i)
			}
			if sg.Kind == segGather && int64(sg.Arg)+int64(sg.NC) > int64(len(s.ColIdx)) {
				return nil, fmt.Errorf("compiler: sections %s seg %d: gather [%d,%d) beyond %d indices",
					s.Name, i, sg.Arg, int64(sg.Arg)+int64(sg.NC), len(s.ColIdx))
			}
			if sg.Kind == segStream && int64(sg.Arg)+int64(sg.NC) > int64(s.Cols) {
				return nil, fmt.Errorf("compiler: sections %s seg %d: stream window [%d,%d) beyond %d columns",
					s.Name, i, sg.Arg, int64(sg.Arg)+int64(sg.NC), s.Cols)
			}
			if int64(sg.RowOff)+int64(sg.NR) > int64(nRows) {
				return nil, fmt.Errorf("compiler: sections %s seg %d: rows [%d,%d) beyond its lane's %d",
					s.Name, i, sg.RowOff, int64(sg.RowOff)+int64(sg.NR), nRows)
			}
			if payload := int64(sg.NR) * int64(sg.NC); int64(sg.ValOff)+payload > int64(numVals) {
				return nil, fmt.Errorf("compiler: sections %s seg %d: payload [%d,%d) beyond %d vals",
					s.Name, i, sg.ValOff, int64(sg.ValOff)+payload, numVals)
			}
			sg.RowOff += rowBase
			segs = append(segs, sg)
		}
		rowBase += nRows
	}
	return segs, nil
}

// numVals validates the value storage against Bits — exactly the array
// Bits selects is populated, with per-row scales iff the values are integers
// — and returns the value count.
func (s *PackedSections) numVals() (int, error) {
	nf, n8, n16 := len(s.Vals), len(s.Vals8), len(s.Vals16)
	if s.Bits == 0 {
		if n8+n16+len(s.Scales) != 0 {
			return 0, fmt.Errorf("compiler: sections %s: float program carries %d quantized vals and %d scales",
				s.Name, n8+n16, len(s.Scales))
		}
		return nf, nil
	}
	if !QuantBitsValid(s.Bits) {
		return 0, fmt.Errorf("compiler: sections %s: quantized width %d invalid (want 8, 12, or 16)",
			s.Name, s.Bits)
	}
	n, other := n8, n16
	if s.Bits != 8 {
		n, other = n16, n8
	}
	if other != 0 || nf != 0 {
		return 0, fmt.Errorf("compiler: sections %s: quantized %d-bit program carries %d float32, %d int8 and %d int16 vals",
			s.Name, s.Bits, nf, n8, n16)
	}
	if len(s.Scales) != s.Rows {
		return 0, fmt.Errorf("compiler: sections %s: %d scales for %d rows", s.Name, len(s.Scales), s.Rows)
	}
	// quant.ScaleFor only produces positive finite scales; anything else
	// would dequantize to NaN, ±Inf or sign-flipped weights.
	for r, sc := range s.Scales {
		if !(sc > 0) || math.IsInf(float64(sc), 1) {
			return 0, fmt.Errorf("compiler: sections %s: row %d scale %v is not positive and finite", s.Name, r, sc)
		}
	}
	return n, nil
}

// NewPackedFromSections reconstructs an executable program from its flat
// serialized form. The float values, ColIdx and RowIdx are borrowed, not
// copied — a caller aliasing them into mapped pages gets a zero-copy program
// — and every descriptor is bounds-checked here, so execution needs no
// further validation. Work is O(segments + indices) for a float program; a
// quantized one also dequantizes its codes into a fresh value array.
func NewPackedFromSections(s *PackedSections) (*PackedProgram, error) {
	numVals, err := s.numVals()
	if err != nil {
		return nil, err
	}
	segs, err := s.segs(numVals)
	if err != nil {
		return nil, err
	}
	p := &PackedProgram{
		Name: s.Name, Rows: s.Rows, Cols: s.Cols,
		Format: s.Format, ValueBits: s.ValueBits,
		Bits: s.Bits, Vals: s.Vals, Scales: s.Scales,
		ColIdx: s.ColIdx, Segs: segs, RowIdx: s.RowIdx,
	}
	p.index()
	if s.Bits == 8 {
		dequantize(p, s.Vals8)
	} else if s.Bits != 0 {
		dequantize(p, s.Vals16)
	}
	return p, nil
}
