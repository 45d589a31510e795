//go:build !purego

#include "textflag.h"

// Relaxed-precision ("fast" tier) kernels: float32 accumulation, fused
// multiply-adds, split accumulator chains. Unlike every exact-tier kernel
// in this package these do NOT reproduce the scalar reference's bytes —
// FMA's single rounding and the 4-way accumulator split reassociate the
// sum — so their contract is the tolerance in ulp.go (FastClose against the
// exact oracle), enforced by the fast equivalence and fuzz suites.
// Every kernel requires AVX2+FMA (dispatch gates on FastSIMD); the float32
// dot has an additional AVX-512 variant.

// func dotFastAVX(a, b *float32, n int) float32
//
// out = Σ a[i]·b[i] with four ymm float32 accumulator chains (32 elements
// per iteration) reduced at the end; remainder through an 8-wide loop and a
// scalar FMA tail that keeps accumulating into the reduced lane.
TEXT ·dotFastAVX(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $32
	JL   f32x8

f32x32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  f32x32

f32x8:
	CMPQ CX, $8
	JL   f32reduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  f32x8

f32reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0          // lane 0 holds the vector sum

	TESTQ CX, CX
	JZ   f32done

f32tail:
	VMOVSS (SI), X4
	VFMADD231SS (DI), X4, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  f32tail

f32done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func dotFastAVX512(a, b *float32, n int) float32
//
// The zmm variant: two 16-lane accumulator chains (32 elements per
// iteration), reduced through the ymm/xmm ladder, with the same 8-wide and
// scalar tails as dotFastAVX. Dispatch guarantees n ≥ fastAVX512MinLen and
// usable zmm state (AVX512F+VL with OS opmask/zmm save).
TEXT ·dotFastAVX512(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS X0, X0, X0           // zeroes Z0 (EVEX-zeroed upper)
	VMOVUPS Z0, Z1

f512x32:
	VMOVUPS (SI), Z4
	VMOVUPS 64(SI), Z5
	VFMADD231PS (DI), Z4, Z0
	VFMADD231PS 64(DI), Z5, Z1
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  f512x32

	VADDPS Z1, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0

f512x8:
	CMPQ CX, $8
	JL   f512reduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  f512x8

f512reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

	TESTQ CX, CX
	JZ   f512done

f512tail:
	VMOVSS (SI), X4
	VFMADD231SS (DI), X4, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  f512tail

f512done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func dotSegFastAVX(vals *float32, rows *int32, nr, nc int, b, y *float32)
//
// Segment-level fast f32 driver: nr row dots of width nc from a contiguous
// row-major panel against the shared activations b[0:nc], scattering
// y[rows[k]] += dot_k. The per-row body is dotFastAVX; hoisting the row
// loop into assembly amortizes call overhead on narrow segments exactly
// like the exact tier's dotSegQuad drivers.
TEXT ·dotSegFastAVX(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), R8
	MOVQ rows+8(FP), R14
	MOVQ nr+16(FP), R12
	MOVQ nc+24(FP), R13
	MOVQ b+32(FP), DX
	MOVQ y+40(FP), BX

segfrow:
	MOVQ R8, SI
	MOVQ DX, DI
	MOVQ R13, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $32
	JL   segf8

segf32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  segf32

segf8:
	CMPQ CX, $8
	JL   segfreduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  segf8

segfreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

	TESTQ CX, CX
	JZ   segfscatter

segftail:
	VMOVSS (SI), X4
	VFMADD231SS (DI), X4, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  segftail

segfscatter:
	MOVL (R14), AX              // y[rows[k]] += dot
	VMOVSS (BX)(AX*4), X5
	VADDSS X0, X5, X5
	VMOVSS X5, (BX)(AX*4)

	LEAQ (R8)(R13*4), R8        // next row: stride nc floats
	ADDQ $4, R14
	DECQ R12
	JNZ  segfrow

	VZEROUPPER
	RET

// func dotBatchChunk8FastAVX(a, bp *float32, n, strideBytes int, out *[8]float32)
//
// Eight-lane strided fast SpMM chunk: out[l] = Σ_i a[i]·bp[i*stride/4+l]
// with one float32 accumulator per lane, two FMA chains unrolled over i.
TEXT ·dotBatchChunk8FastAVX(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ bp+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ strideBytes+24(FP), R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	CMPQ CX, $2
	JL   bf8one

bf8two:
	VBROADCASTSS (SI), Y4
	VMOVUPS (DI), Y5
	VFMADD231PS Y5, Y4, Y0
	VBROADCASTSS 4(SI), Y6
	VMOVUPS (DI)(R8*1), Y7
	VFMADD231PS Y7, Y6, Y1
	ADDQ $8, SI
	LEAQ (DI)(R8*2), DI
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  bf8two

bf8one:
	TESTQ CX, CX
	JZ   bf8store
	VBROADCASTSS (SI), Y4
	VMOVUPS (DI), Y5
	VFMADD231PS Y5, Y4, Y0

bf8store:
	VADDPS Y1, Y0, Y0
	MOVQ out+32(FP), DX
	VMOVUPS Y0, (DX)
	VZEROUPPER
	RET
