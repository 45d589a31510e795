// Package compiler implements RTMobile's compiler-assisted acceleration
// framework (Section IV-B): the matrix reorder pass that groups rows with
// similar computation patterns to fix thread load imbalance, redundant-load
// elimination across neighbouring rows that share a BSP column pattern, the
// BSPC storage selection, and the auto-tuner that searches block size,
// tiling and unrolling. Each matrix is lowered once, straight into the
// packed program a deployment runs (one segment list, executed in order),
// and the Plan — the statistics-level IR the device models
// (internal/device) execute analytically — is counted off those programs,
// cut into the modelled target's thread chunks.
package compiler

import (
	"fmt"

	"rtmobile/internal/prune"
	"rtmobile/internal/tensor"
)

// Format selects the weight storage layout of a compiled matrix.
type Format int

const (
	// FormatAuto lets the framework pick (rtmobile resolves it to BSPC).
	// Making "unspecified" the zero value prevents a zero-valued config
	// from silently selecting the dense baseline.
	FormatAuto Format = iota
	// FormatDense streams the full matrix (the unpruned baseline).
	FormatDense
	// FormatCSR stores per-nonzero column indices (what a pruned matrix
	// pays without BSPC).
	FormatCSR
	// FormatBSPC is the paper's block-compact format.
	FormatBSPC
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatDense:
		return "dense"
	case FormatCSR:
		return "csr"
	case FormatBSPC:
		return "bspc"
	default:
		return "unknown"
	}
}

// Placement selects where the gather buffer (the block's input values)
// lives — the "memory placement" knob of the paper's auto-tuner.
type Placement int

const (
	// PlaceShared keeps gathered inputs in shared/local memory (default).
	PlaceShared Placement = iota
	// PlaceRegisters promotes the gather buffer to registers — cheaper
	// per access, but only valid when every block's gather width fits the
	// register budget; the device model demotes oversized buffers.
	PlaceRegisters
	// PlaceGlobal leaves gathered values in global memory (the untuned
	// worst case; useful as the ablation floor).
	PlaceGlobal
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceRegisters:
		return "registers"
	case PlaceGlobal:
		return "global"
	default:
		return "shared"
	}
}

// TileConfig is the loop-nest shape of the modelled mobile target's kernel:
// chosen by the auto-tuner, priced by internal/device, printed in listings
// and recorded in bundles. The host's packed executor takes no part of it.
type TileConfig struct {
	RowTile   int // output rows per tile
	ColTile   int // input columns per tile
	Unroll    int // innermost unroll factor
	Placement Placement
}

// DefaultTile is a safe untuned configuration.
func DefaultTile() TileConfig { return TileConfig{RowTile: 32, ColTile: 256, Unroll: 1} }

// Options control the optimization passes applied during codegen.
type Options struct {
	Format                  Format
	Reorder                 bool // matrix reorder (Section IV-B(a))
	EliminateRedundantLoads bool // load redundancy elimination (IV-B(b))
	Tile                    TileConfig
	ValueBits               int // 16 on the GPU path, 32 on the CPU path
	// QuantBits selects quantized packed weight storage: 0 keeps float
	// values at ValueBits; 8, 12, or 16 stores integers plus per-row scales
	// (see quantize, pack.go). When set, footprint accounting prices the
	// quantized backend.
	QuantBits int
}

// DefaultOptions enables every RTMobile pass for the given format.
func DefaultOptions(f Format, valueBits int) Options {
	return Options{
		Format: f, Reorder: true, EliminateRedundantLoads: true,
		Tile: DefaultTile(), ValueBits: valueBits,
	}
}

// MatrixSource is one weight matrix to compile. Scheme must be set when
// Options.Format is FormatBSPC (it supplies the block grid).
type MatrixSource struct {
	Name   string
	W      *tensor.Matrix
	Scheme *prune.BSP
}

// MatrixStats is the compiled form of one matrix: everything the device
// cost models need to price one application (one GEMV) of the matrix.
type MatrixStats struct {
	Name       string
	Rows, Cols int
	NNZ        int
	Format     Format

	// Storage footprint, streamed from memory once per application.
	WeightBytes int
	IndexBytes  int

	// ThreadMACs[i] is the multiply-accumulate count thread i executes;
	// the max/mean ratio is the load imbalance the reorder pass fixes.
	ThreadMACs []int

	// GatherLoads are input-vector loads through an index indirection
	// (irregular; each pays the device's gather penalty). InputLoads are
	// the remaining regular input loads. EliminatedLoads counts loads the
	// redundancy-elimination pass removed. MaxGatherWidth is the widest
	// single gather (block kept-columns / row nnz) — it bounds whether the
	// gather buffer fits in registers.
	GatherLoads     int
	InputLoads      int
	EliminatedLoads int
	MaxGatherWidth  int

	// Reordered records whether the reorder pass ran; RowPerm is the
	// storage order it chose (nil = identity).
	Reordered bool
	RowPerm   []int
}

// MACs totals multiply-accumulates across threads.
func (m *MatrixStats) MACs() int {
	n := 0
	for _, t := range m.ThreadMACs {
		n += t
	}
	return n
}

// MaxThreadMACs returns the busiest thread's work.
func (m *MatrixStats) MaxThreadMACs() int {
	mx := 0
	for _, t := range m.ThreadMACs {
		if t > mx {
			mx = t
		}
	}
	return mx
}

// LoadImbalance is max/mean thread work (1.0 = perfectly balanced).
func (m *MatrixStats) LoadImbalance() float64 {
	total := m.MACs()
	if total == 0 || len(m.ThreadMACs) == 0 {
		return 1
	}
	mean := float64(total) / float64(len(m.ThreadMACs))
	return float64(m.MaxThreadMACs()) / mean
}

// Plan is the execution plan for one inference frame of the whole model.
type Plan struct {
	ModelName string
	// TimestepsPerFrame: GRU timesteps per inference frame. One Table II
	// "frame" is a 150 ms chunk = 15 timesteps (see internal/device docs).
	TimestepsPerFrame int
	// Matrices are each applied once per timestep.
	Matrices []MatrixStats
	// ElementwisePerTimestep counts the gate/activation flops per timestep
	// (sigmoid/tanh/blend work outside the GEMVs).
	ElementwisePerTimestep int
	Options                Options
}

// FrameMACs totals MACs for one frame.
func (p *Plan) FrameMACs() int {
	n := 0
	for i := range p.Matrices {
		n += p.Matrices[i].MACs()
	}
	return n * p.TimestepsPerFrame
}

// FrameOps returns total arithmetic operations per frame (2 ops per MAC
// plus elementwise), the quantity behind Table II's GOP column.
func (p *Plan) FrameOps() float64 {
	return float64(2*p.FrameMACs() + p.ElementwisePerTimestep*p.TimestepsPerFrame)
}

// GOP returns Giga-operations per frame.
func (p *Plan) GOP() float64 { return p.FrameOps() / 1e9 }

// WeightBytes totals weight+index storage streamed per timestep.
func (p *Plan) WeightBytes() int {
	n := 0
	for i := range p.Matrices {
		n += p.Matrices[i].WeightBytes + p.Matrices[i].IndexBytes
	}
	return n
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("Plan(%s: %d matrices, %.4f GOP/frame, %d weight bytes)",
		p.ModelName, len(p.Matrices), p.GOP(), p.WeightBytes())
}
