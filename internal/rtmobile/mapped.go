package rtmobile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"rtmobile/internal/compiler"
	"rtmobile/internal/device"
	"rtmobile/internal/nn"
	"rtmobile/internal/parallel"
	"rtmobile/internal/prune"
)

// Zero-copy bundle loading. MapBundle mmaps a v5 bundle (read-only, shared)
// and reconstructs the engine by aliasing the mapped sections in place:
// every packed program's flat arrays point straight into the file's pages
// (the biases are copied, as Compile copies them). Load cost is
// O(sections) descriptor work plus one streaming checksum pass — no
// per-weight decode, no repack, no recompile — and N engines mapped from
// one file share its pages, so resident memory grows sublinearly in the
// model count. The portable fallback (no mmap on the
// platform, or a purego / big-endian build that cannot alias) reads the
// file into one arena and parses the identical format there. Either way
// the engine holds what a compiled one holds — spec, biases, programs —
// and runs the programs as the file stores them, priced under the target
// the plan was lowered for: MapBundle never lowers. A file it cannot run
// as written is refused (bundle.go).

// v5Image is a parsed v5 bundle: the engine (its programs potentially
// aliasing the backing bytes) and the stored scheme.
type v5Image struct {
	eng    *Engine
	scheme prune.BSP
}

// MappedBundle is a loaded deployment whose storage may alias a shared
// read-only mapping. The engine and programs stay valid until Close; after
// Close, using them is a use-after-unmap (the registry's refcounted drain
// exists to rule that out in serving).
type MappedBundle struct {
	img    v5Image
	data   []byte
	unmap  func([]byte) error // nil when the backing is a heap arena
	mapped bool               // storage aliases an OS file mapping (false: heap arena)
	closed bool
}

// Engine returns the deployed engine. It aliases the mapping; do not use
// it after Close.
func (b *MappedBundle) Engine() *Engine { return b.img.eng }

// Scheme returns the BSP scheme stored in the bundle.
func (b *MappedBundle) Scheme() prune.BSP { return b.img.scheme }

// Packed returns the packed program the engine executes for the named
// weight matrix (nil for unknown names).
func (b *MappedBundle) Packed(name string) *compiler.PackedProgram {
	return b.img.eng.program(name)
}

// Close releases the mapping. The engine and every program obtained from
// this bundle become invalid: their weight slices alias the unmapped
// pages. Idempotent.
func (b *MappedBundle) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.unmap != nil {
		data := b.data
		b.data = nil
		return b.unmap(data)
	}
	b.data = nil
	return nil
}

// MapBundle loads a v5 deployment bundle by path and serves its stored
// programs as written: mapped zero-copy, or arena-loaded where mmap or
// aliasing is unavailable. The engine is priced under the target the plan
// was lowered for; a non-nil target must be that one (bundleTarget). Any
// file it cannot run as written is refused with the reason and the
// command that upgrades it (refuseBundle).
func MapBundle(path string, target *device.Target) (*MappedBundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("rtmobile: bundle %s too large to map (%d bytes)", path, size)
	}

	data, unmap, err := mmapFile(f, int(size))
	mapped := err == nil
	if err != nil {
		// Portable fallback: one arena allocation holding the whole image.
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		unmap = nil
	}
	img, err := parseV5(data, target, path)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, err
	}
	return &MappedBundle{img: img, data: data, unmap: unmap, mapped: mapped}, nil
}

// --- v5 parsing ----------------------------------------------------------

// v5Section is one directory entry resolved against the image bounds.
type v5Section struct {
	payload []byte
}

// parseV5Sections validates the header, directory, and checksums of a v5
// image and returns the section map; a version 1–4 header is refused
// (refuseBundle, naming path). Every slice boundary is length-checked
// before slicing — a corrupt or adversarial directory can produce an error,
// never an out-of-range read.
func parseV5Sections(data []byte, path string) (map[uint32][]byte, error) {
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, fmt.Errorf("rtmobile: bundle truncated: %d bytes", len(data))
	}
	if string(data[:4]) != bundleMagic {
		return nil, fmt.Errorf("rtmobile: bad bundle magic %q", data[:4])
	}
	switch v := le.Uint32(data[4:]); {
	case v >= 1 && v < bundleVersion5:
		return nil, refuseBundle(fmt.Sprintf("is format version %d", v), path)
	case v != bundleVersion5:
		return nil, fmt.Errorf("rtmobile: unsupported bundle version %d", v)
	case len(data) < 12:
		return nil, fmt.Errorf("rtmobile: v5 bundle truncated: %d bytes", len(data))
	}
	count := le.Uint32(data[8:])
	if count == 0 || count > v5MaxSections {
		return nil, fmt.Errorf("rtmobile: corrupt section count %d (max %d)", count, v5MaxSections)
	}
	dirEnd := 12 + 24*int(count)
	if dirEnd+4 > len(data) {
		return nil, fmt.Errorf("rtmobile: section table truncated: %d sections need %d bytes, have %d",
			count, dirEnd+4, len(data))
	}
	dir := data[12:dirEnd]
	if got, want := crc32.ChecksumIEEE(dir), le.Uint32(data[dirEnd:]); got != want {
		return nil, fmt.Errorf("rtmobile: section directory checksum mismatch (%08x vs %08x)", got, want)
	}
	sections := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		d := dir[24*i:]
		id := le.Uint32(d[0:])
		off := le.Uint64(d[4:])
		length := le.Uint64(d[12:])
		crc := le.Uint32(d[20:])
		if _, dup := sections[id]; dup {
			return nil, fmt.Errorf("rtmobile: duplicate section id %d", id)
		}
		if off < uint64(dirEnd+4) || off%v5Align != 0 {
			return nil, fmt.Errorf("rtmobile: section %d offset %d invalid (directory ends at %d, alignment %d)",
				id, off, dirEnd+4, v5Align)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("rtmobile: section %d [%d,+%d) out of range (file is %d bytes)",
				id, off, length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("rtmobile: section %d checksum mismatch (%08x vs %08x)", id, got, crc)
		}
		sections[id] = payload
	}
	return sections, nil
}

// section returns a section's payload by id, with a contextual error when
// it is missing.
func v5SectionBytes(sections map[uint32][]byte, id uint32, what string) ([]byte, error) {
	if id == 0 {
		return nil, fmt.Errorf("rtmobile: %s: no section recorded", what)
	}
	p, ok := sections[id]
	if !ok {
		return nil, fmt.Errorf("rtmobile: %s: section %d missing from directory", what, id)
	}
	return p, nil
}

// v5F32 resolves a section as a little-endian f32 array, aliasing in place
// when the host allows and copy-decoding otherwise. want < 0 skips the
// length check.
func v5F32(sections map[uint32][]byte, id uint32, what string, want int) ([]float32, error) {
	b, err := v5SectionBytes(sections, id, what)
	if err != nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("rtmobile: %s: section length %d not a multiple of 4", what, len(b))
	}
	n := len(b) / 4
	if want >= 0 && n != want {
		return nil, fmt.Errorf("rtmobile: %s: section holds %d values, want %d", what, n, want)
	}
	if v, ok := tryAliasF32(b); ok {
		return v, nil
	}
	return decodeF32(b), nil
}

// v5I32 resolves a section as a little-endian i32 array.
func v5I32(sections map[uint32][]byte, id uint32, what string) ([]int32, error) {
	b, err := v5SectionBytes(sections, id, what)
	if err != nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("rtmobile: %s: section length %d not a multiple of 4", what, len(b))
	}
	if v, ok := tryAliasI32(b); ok {
		return v, nil
	}
	return decodeI32(b), nil
}

// v5I16 resolves a section as a little-endian i16 array.
func v5I16(sections map[uint32][]byte, id uint32, what string) ([]int16, error) {
	b, err := v5SectionBytes(sections, id, what)
	if err != nil {
		return nil, err
	}
	if len(b)%2 != 0 {
		return nil, fmt.Errorf("rtmobile: %s: section length %d not a multiple of 2", what, len(b))
	}
	if v, ok := tryAliasI16(b); ok {
		return v, nil
	}
	return decodeI16(b), nil
}

// v5I8 resolves a section as an i8 array.
func v5I8(sections map[uint32][]byte, id uint32, what string) ([]int8, error) {
	b, err := v5SectionBytes(sections, id, what)
	if err != nil {
		return nil, err
	}
	if v, ok := tryAliasI8(b); ok {
		return v, nil
	}
	return decodeI8(b), nil
}

// decodeF32 is the portable copy path (purego builds, big-endian hosts,
// misaligned arenas).
func decodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeI16(b []byte) []int16 {
	out := make([]int16, len(b)/2)
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return out
}

func decodeI8(b []byte) []int8 {
	out := make([]int8, len(b))
	for i := range out {
		out[i] = int8(b[i])
	}
	return out
}

// specShell validates a model spec read from a bundle (nn.ModelSpec.Validate)
// and returns its shape-only shell (nn.NewModelShell): no weight storage is
// allocated.
func specShell(spec nn.ModelSpec) (*nn.Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return nn.NewModelShell(spec), nil
}

// v5MaxMetaBytes bounds the JSON metadata section so a corrupt directory
// cannot drive an absurd unmarshal.
const v5MaxMetaBytes = 64 << 20

// v5File is a decoded v5 image: its metadata, a shell holding the params
// no stored program covers, and the stored programs.
type v5File struct {
	meta  v5Meta
	shell *nn.Model
	progs []*compiler.PackedProgram
}

// decodeV5 validates a complete v5 image and resolves its sections,
// aliasing the image's bytes wherever the host allows. An image whose
// programs are not what an engine executes, or whose plan does not price
// them, is refused (refuseBundle, naming path).
func decodeV5(data []byte, path string) (*v5File, error) {
	sections, err := parseV5Sections(data, path)
	if err != nil {
		return nil, err
	}
	metaRaw, err := v5SectionBytes(sections, v5SecMeta, "bundle metadata")
	if err != nil {
		return nil, err
	}
	if len(metaRaw) > v5MaxMetaBytes {
		return nil, fmt.Errorf("rtmobile: metadata section is %d bytes (max %d)", len(metaRaw), v5MaxMetaBytes)
	}
	f := &v5File{}
	if err := json.Unmarshal(metaRaw, &f.meta); err != nil {
		return nil, fmt.Errorf("rtmobile: decoding bundle metadata: %w", err)
	}
	meta := &f.meta
	if f.shell, err = specShell(meta.Spec); err != nil {
		return nil, err
	}
	if meta.Plan == nil {
		return nil, fmt.Errorf("rtmobile: bundle metadata has no plan")
	}
	if meta.QuantBits != 0 && !compiler.QuantBitsValid(meta.QuantBits) {
		return nil, fmt.Errorf("rtmobile: corrupt quantization width %d", meta.QuantBits)
	}
	if meta.TuneMode > uint8(TuneAnalytic) {
		return nil, fmt.Errorf("rtmobile: unknown tune mode %d", meta.TuneMode)
	}

	// Check the param directory against the shell; storage comes later.
	params := f.shell.Params()
	if len(meta.Params) != len(params) {
		return nil, fmt.Errorf("rtmobile: bundle has %d params, model expects %d", len(meta.Params), len(params))
	}
	for i, p := range params {
		pm := meta.Params[i]
		if pm.Name != p.Name {
			return nil, fmt.Errorf("rtmobile: param order mismatch: %q vs %q", pm.Name, p.Name)
		}
		if pm.Rows != p.W.Rows || pm.Cols != p.W.Cols {
			return nil, fmt.Errorf("rtmobile: %s shape %dx%d, want %dx%d",
				p.Name, pm.Rows, pm.Cols, p.W.Rows, p.W.Cols)
		}
	}
	if f.progs, err = storedPrograms(sections, meta, f.shell); err != nil {
		return nil, err
	}
	switch {
	case f.progs == nil:
		return nil, refuseBundle("stores no programs an engine executes", path)
	case !meta.Plan.Prices(f.progs):
		return nil, refuseBundle("plan does not price its programs", path)
	}
	// Attach the sections of the params no program covers, aliased where
	// the host allows; a section a covered param still carries is ignored.
	for i, p := range params {
		if programFor(f.progs, p.Name) != nil {
			continue
		}
		w, err := v5F32(sections, meta.Params[i].Section, "param "+p.Name, p.W.Rows*p.W.Cols)
		if err != nil {
			return nil, err
		}
		p.W.Data = w
	}
	return f, nil
}

// parseV5 builds the engine a complete v5 image serves as written: its
// stored programs, aliased in place, under its stored plan, priced under
// bundleTarget(plan, target).
func parseV5(data []byte, target *device.Target, path string) (v5Image, error) {
	var zero v5Image
	f, err := decodeV5(data, path)
	if err != nil {
		return zero, err
	}
	for _, pm := range f.meta.Programs {
		if pm.Tier == fastTier {
			return zero, fmt.Errorf("rtmobile: bundle was deployed on the fast kernel tier, which is gone: re-deploy it with rtmobile deploy -in %s", pathOr(path))
		}
	}
	plan := f.meta.Plan
	if target, err = bundleTarget(plan, target); err != nil {
		return zero, err
	}
	eng := &Engine{
		shell: shellOf(f.shell, f.progs), progs: f.progs, plan: plan, target: target,
		pool:      parallel.Default(),
		fp16:      plan.Options.ValueBits == 16,
		tuned:     TuneRecord{Mode: TuneMode(f.meta.TuneMode), Cost: f.meta.TuneCost},
		quant:     f.meta.QuantBits,
		stepMACs:  stepPricedMACs(plan),
		stepBytes: uint64(plan.WeightBytes()),
	}
	return v5Image{eng: eng, scheme: f.meta.Scheme}, nil
}

// storedPrograms rebuilds the bundle's programs over their sections and
// returns them when they are what the engine executes: one per prunable
// weight matrix, on the deployment's width, each output row
// produced by a single dot (so accumulating the program is
// tensor.MatVecAdd's per-row order). It returns nil programs for bundles
// that carry anything else — the [Wx|Wh] programs old fused deployments
// wrote, which sum what a GRU keeps apart, or a file written by the
// per-block lowering. Corrupt sections are an error either way. Only the
// shell's shapes are read.
func storedPrograms(sections map[uint32][]byte, meta *v5Meta, shell *nn.Model) ([]*compiler.PackedProgram, error) {
	srcs := ModelSources(shell, meta.Scheme, meta.Plan.Options.Format)
	progs := make([]*compiler.PackedProgram, 0, len(meta.Programs))
	usable := len(meta.Programs) == len(srcs)
	for i, pm := range meta.Programs {
		pp, ps, err := v5Program(sections, pm)
		if err != nil {
			return nil, err
		}
		progs = append(progs, pp)
		usable = usable && pm.Name == srcs[i].Name &&
			ps.Rows == srcs[i].W.Rows && ps.Cols == srcs[i].W.Cols &&
			ps.Bits == meta.QuantBits && ps.RowsOnce()
	}
	if !usable {
		return nil, nil
	}
	return progs, nil
}

// v5Program rebuilds one stored program, aliasing its sections in place.
func v5Program(sections map[uint32][]byte, pm v5ProgramMeta) (*compiler.PackedProgram, *compiler.PackedSections, error) {
	what := "program " + pm.Name
	if pm.Tier > fastTier {
		return nil, nil, fmt.Errorf("rtmobile: %s: corrupt precision tier %d", what, pm.Tier)
	}
	if sc, n := scaleLayout(pm.Bits, pm.Rows); pm.Scheme != sc || pm.NumScales != n {
		return nil, nil, fmt.Errorf("rtmobile: %s: %d-bit program records scale scheme %d with %d scales, want %d with %d",
			what, pm.Bits, pm.Scheme, pm.NumScales, sc, n)
	}
	ps := &compiler.PackedSections{
		Name: pm.Name, Rows: pm.Rows, Cols: pm.Cols,
		Format: pm.Format, ValueBits: pm.ValueBits, Bits: pm.Bits,
	}
	var err error
	if ps.ColIdx, err = v5I32(sections, pm.SecColIdx, what+" colidx"); err != nil {
		return nil, nil, err
	}
	if ps.SegWords, err = v5I32(sections, pm.SecSegs, what+" segments"); err != nil {
		return nil, nil, err
	}
	if ps.RowIdx, err = v5I32(sections, pm.SecRows, what+" rows"); err != nil {
		return nil, nil, err
	}
	if ps.LaneSegCounts, err = v5I32(sections, pm.SecLaneSegs, what+" lane seg counts"); err != nil {
		return nil, nil, err
	}
	if ps.LaneRowCounts, err = v5I32(sections, pm.SecLaneRows, what+" lane row counts"); err != nil {
		return nil, nil, err
	}
	switch pm.Bits {
	case 0:
		ps.Vals, err = v5F32(sections, pm.SecVals, what+" vals", -1)
	case 8:
		ps.Vals8, err = v5I8(sections, pm.SecQVals, what+" qvals")
	default:
		ps.Vals16, err = v5I16(sections, pm.SecQVals, what+" qvals")
	}
	if err == nil && pm.Bits != 0 {
		ps.Scales, err = v5F32(sections, pm.SecScales, what+" scales", pm.Rows)
	}
	if err != nil {
		return nil, nil, err
	}
	pp, err := compiler.NewPackedFromSections(ps)
	return pp, ps, err
}
