package rtmobile

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

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
// and the dense sections a file from before the compact format carries
// are read only when its programs must be lowered again.

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
	img     v5Image
	data    []byte
	unmap   func([]byte) error // nil when the backing is a heap arena
	mapped  bool
	version int
	closed  bool
}

// Engine returns the deployed engine. It aliases the mapping; do not use
// it after Close.
func (b *MappedBundle) Engine() *Engine { return b.img.eng }

// Scheme returns the BSP scheme stored in the bundle.
func (b *MappedBundle) Scheme() prune.BSP { return b.img.scheme }

// Mapped reports whether the bundle's storage aliases an OS file mapping
// (false = heap arena fallback, or a legacy-version bundle loaded through
// the decode path).
func (b *MappedBundle) Mapped() bool { return b.mapped }

// Version reports the on-disk format version that was loaded.
func (b *MappedBundle) Version() int { return b.version }

// Packed returns the packed program the engine executes for the named
// weight matrix (nil for unknown names).
func (b *MappedBundle) Packed(name string) *compiler.PackedProgram {
	return b.img.eng.program(name)
}

// ProgramNames lists the engine's program names, sorted.
func (b *MappedBundle) ProgramNames() []string {
	names := make([]string, 0, len(b.img.eng.progs))
	for _, p := range b.img.eng.progs {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
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

// MapBundle loads a deployment bundle by path for the target. v5 bundles
// map zero-copy (or arena-load where mmap / aliasing is unavailable);
// v1–v4 bundles transparently load through the legacy decode path, so
// callers can treat any bundle file uniformly.
func MapBundle(path string, target *device.Target) (*MappedBundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("rtmobile: reading bundle header: %w", err)
	}
	if string(head[:4]) != bundleMagic {
		return nil, fmt.Errorf("rtmobile: bad bundle magic %q", head[:4])
	}
	version := int(binary.LittleEndian.Uint32(head[4:]))
	if version != bundleVersion5 {
		// Legacy format: decode-load. No shared mapping to manage.
		if _, err := f.Seek(0, 0); err != nil {
			return nil, err
		}
		eng, scheme, err := LoadBundle(bufio.NewReader(f), target)
		if err != nil {
			return nil, err
		}
		return &MappedBundle{
			img:     v5Image{eng: eng, scheme: scheme},
			version: version,
		}, nil
	}

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
	img, err := parseV5(data, target)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, err
	}
	return &MappedBundle{
		img: img, data: data, unmap: unmap,
		mapped: mapped, version: bundleVersion5,
	}, nil
}

// --- v5 parsing ----------------------------------------------------------

// v5Section is one directory entry resolved against the image bounds.
type v5Section struct {
	payload []byte
}

// parseV5Sections validates the header, directory, and checksums of a v5
// image and returns the section map. Every slice boundary is length-checked
// before slicing — a corrupt or adversarial directory can produce an error,
// never an out-of-range read.
func parseV5Sections(data []byte) (map[uint32][]byte, error) {
	le := binary.LittleEndian
	if len(data) < 12 {
		return nil, fmt.Errorf("rtmobile: v5 bundle truncated: %d bytes", len(data))
	}
	if string(data[:4]) != bundleMagic {
		return nil, fmt.Errorf("rtmobile: bad bundle magic %q", data[:4])
	}
	if v := le.Uint32(data[4:]); v != bundleVersion5 {
		return nil, fmt.Errorf("rtmobile: v5 parser got version %d", v)
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

// Bounds on a model spec read from a bundle, so that a corrupt header can
// neither overflow the shell's shapes nor declare more weights than any
// deployment holds (the paper's largest model has 9.6 M).
const (
	maxSpecDim     = 1 << 20
	maxSpecLayers  = 1024
	maxModelParams = 1 << 26
)

// specShell validates a model spec read from a bundle and returns its
// shape-only shell (nn.NewModelShell): no weight storage is allocated.
func specShell(spec nn.ModelSpec) (*nn.Model, error) {
	for _, d := range []int{spec.InputDim, spec.Hidden, spec.OutputDim} {
		if d < 1 || d > maxSpecDim {
			return nil, fmt.Errorf("rtmobile: corrupt model spec %+v", spec)
		}
	}
	if spec.NumLayers < 1 || spec.NumLayers > maxSpecLayers {
		return nil, fmt.Errorf("rtmobile: corrupt layer count %d", spec.NumLayers)
	}
	if spec.Cell != nn.CellGRU && spec.Cell != nn.CellLSTM {
		return nil, fmt.Errorf("rtmobile: unknown cell type %d", spec.Cell)
	}
	shell := nn.NewModelShell(spec)
	n := 0
	for _, p := range shell.Params() {
		n += p.W.Rows * p.W.Cols
	}
	if n > maxModelParams {
		return nil, fmt.Errorf("rtmobile: model spec declares %d parameters (max %d)", n, maxModelParams)
	}
	return shell, nil
}

// v5MaxMetaBytes bounds the JSON metadata section so a corrupt directory
// cannot drive an absurd unmarshal.
const v5MaxMetaBytes = 64 << 20

// parseV5 reconstructs an engine (and its packed programs) from a complete
// v5 image, aliasing the image's bytes wherever the host allows. The
// target supplies the cost model, exactly as in LoadBundle.
func parseV5(data []byte, target *device.Target) (v5Image, error) {
	var zero v5Image
	if target == nil {
		return zero, fmt.Errorf("rtmobile: MapBundle target is required")
	}
	sections, err := parseV5Sections(data)
	if err != nil {
		return zero, err
	}
	metaRaw, err := v5SectionBytes(sections, v5SecMeta, "bundle metadata")
	if err != nil {
		return zero, err
	}
	if len(metaRaw) > v5MaxMetaBytes {
		return zero, fmt.Errorf("rtmobile: metadata section is %d bytes (max %d)", len(metaRaw), v5MaxMetaBytes)
	}
	var meta v5Meta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return zero, fmt.Errorf("rtmobile: decoding bundle metadata: %w", err)
	}

	shell, err := specShell(meta.Spec)
	if err != nil {
		return zero, err
	}
	if meta.Plan == nil {
		return zero, fmt.Errorf("rtmobile: bundle metadata has no plan")
	}
	if !compiler.PrecisionValid(meta.Plan.Options.Precision) {
		return zero, fmt.Errorf("rtmobile: corrupt precision tier %d", meta.Plan.Options.Precision)
	}
	if meta.QuantBits != 0 && !compiler.QuantBitsValid(meta.QuantBits) {
		return zero, fmt.Errorf("rtmobile: corrupt quantization width %d", meta.QuantBits)
	}
	if meta.TuneMode > uint8(TuneMeasured) {
		return zero, fmt.Errorf("rtmobile: unknown tune mode %d", meta.TuneMode)
	}

	// Check the param directory against the shell; storage comes later.
	params := shell.Params()
	if len(meta.Params) != len(params) {
		return zero, fmt.Errorf("rtmobile: bundle has %d params, model expects %d", len(meta.Params), len(params))
	}
	for i, p := range params {
		pm := meta.Params[i]
		if pm.Name != p.Name {
			return zero, fmt.Errorf("rtmobile: param order mismatch: %q vs %q", pm.Name, p.Name)
		}
		if pm.Rows != p.W.Rows || pm.Cols != p.W.Cols {
			return zero, fmt.Errorf("rtmobile: %s shape %dx%d, want %dx%d",
				p.Name, pm.Rows, pm.Cols, p.W.Rows, p.W.Cols)
		}
	}
	progs, err := storedPrograms(sections, &meta, shell)
	if err != nil {
		return zero, err
	}
	// Attach the param sections, aliased where the host allows, except
	// those a usable stored program carries: a compact file has none for
	// them, an older file's are ignored. Without such a program (or when the
	// plan must be re-priced from dense weights) every param needs one.
	for i, p := range params {
		pm := meta.Params[i]
		if !meta.Fused && programFor(progs, p.Name) != nil {
			continue
		}
		w, err := v5F32(sections, pm.Section, "param "+p.Name, p.W.Rows*p.W.Cols)
		if err != nil {
			return zero, err
		}
		p.W.Data = w
	}

	plan := meta.Plan
	if meta.Fused {
		// The stored plan prices [Wx|Wh] kernels nothing executes; price
		// the per-matrix programs that run.
		plan, err = compiler.CompilePlan(plan.ModelName,
			ModelSources(shell, meta.Scheme, plan.Options.Format), plan.Options,
			target.Threads(), plan.TimestepsPerFrame, plan.ElementwisePerTimestep)
		if err != nil {
			return zero, err
		}
	}
	if progs == nil {
		opt := plan.Options
		opt.QuantBits = meta.QuantBits
		progs, err = lowerPrograms(shell, meta.Scheme, opt, target.Threads())
		if err != nil {
			return zero, err
		}
	}
	eng := &Engine{
		shell: shellOf(shell, progs), progs: progs, plan: plan, target: target,
		pool:  parallel.Default(),
		fp16:  plan.Options.ValueBits == 16,
		tuned: TuneRecord{Mode: TuneMode(meta.TuneMode), Cost: meta.TuneCost},
		quant: meta.QuantBits, precision: plan.Options.Precision,
		stepMACs:  stepPricedMACs(plan),
		stepBytes: uint64(plan.WeightBytes()),
	}
	return v5Image{eng: eng, scheme: meta.Scheme}, nil
}

// storedPrograms rebuilds the bundle's programs over their sections and
// returns them when they are what the engine executes: one per prunable
// weight matrix, on the deployment's width and tier, each output row
// produced by a single dot (so accumulating the program is
// tensor.MatVecAdd's per-row order). It returns nil programs for bundles
// that carry anything else — the [Wx|Wh] programs old fused deployments
// wrote, which sum what a GRU keeps apart, or a file written by the
// per-block lowering — and the caller lowers from the weights instead.
// Corrupt sections are an error either way. Only the shell's shapes are
// read.
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
			ps.Bits == meta.QuantBits && ps.Precision == meta.Plan.Options.Precision &&
			ps.RowsOnce()
	}
	if !usable {
		return nil, nil
	}
	return progs, nil
}

// v5Program rebuilds one stored program, aliasing its sections in place.
func v5Program(sections map[uint32][]byte, pm v5ProgramMeta) (*compiler.PackedProgram, *compiler.PackedSections, error) {
	ps := &compiler.PackedSections{
		Name: pm.Name, Rows: pm.Rows, Cols: pm.Cols,
		Format: pm.Format, ValueBits: pm.ValueBits, Precision: pm.Precision,
		Bits: pm.Bits, Scheme: pm.Scheme, NumScales: pm.NumScales,
	}
	what := "program " + pm.Name
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
