//go:build !purego

#include "textflag.h"

// Fast activation kernels: rational tanh/sigmoid and Cephes-style exp
// evaluated 8 lanes at a time under AVX2+FMA, plus the fused single-pass
// GRU gate epilogue built from them. These do NOT reproduce the exact
// kernels' bytes — the polynomials themselves are approximations and the
// FMAs fuse roundings — so the contract is the
// activation tolerance in ulp.go (FastActClose against the exact oracle),
// enforced by the property/fuzz suites in act_test.go.
//
// Every constant lives in ·actConsts (act_amd64.go), one 32-byte replicated
// row per logical constant so it can be a direct ymm memory operand; the
// byte offsets below are row·32. Dispatch guarantees n is a positive
// multiple of 8.
//
// NaN propagation: the input clamps put the data register in the min/max
// src2 slot (Plan9 first operand), and MINPS/MAXPS return src2 when either
// input is NaN, so NaN inputs ride through the clamp into the polynomial
// and come out NaN — matching the scalar reference, whose clamp
// comparisons all fail on NaN.

// TANH8 rewrites value register V with tanh(V) via the odd rational
// approximation x·P(x²)/Q(x²), input clamped to ±tanhFastClamp. Expects
// Y9 = +clamp row, Y10 = −clamp row; S1/S2 are scratch.
#define TANH8(V, S1, S2) \
	VMINPS V, Y9, V                        \ // V = min(clamp, V); NaN in V propagates
	VMAXPS V, Y10, V                       \ // V = max(−clamp, V)
	VMULPS V, V, S1                        \ // S1 = x²
	VMOVUPS ·actConsts+64(SB), S2          \ // S2 = α13
	VFMADD213PS ·actConsts+96(SB), S1, S2  \ // S2 = S2·x² + α11
	VFMADD213PS ·actConsts+128(SB), S1, S2 \ // … + α9
	VFMADD213PS ·actConsts+160(SB), S1, S2 \ // … + α7
	VFMADD213PS ·actConsts+192(SB), S1, S2 \ // … + α5
	VFMADD213PS ·actConsts+224(SB), S1, S2 \ // … + α3
	VFMADD213PS ·actConsts+256(SB), S1, S2 \ // … + α1
	VMULPS S2, V, V                        \ // V = x·P(x²)
	VMOVUPS ·actConsts+288(SB), S2         \ // S2 = β6
	VFMADD213PS ·actConsts+320(SB), S1, S2 \ // … + β4
	VFMADD213PS ·actConsts+352(SB), S1, S2 \ // … + β2
	VFMADD213PS ·actConsts+384(SB), S1, S2 \ // … + β0
	VDIVPS S2, V, V                          // V = x·P/Q

// SIGMOID8 rewrites V with σ(V) = ½ + ½·tanh(V/2). Expects Y9/Y10 as
// TANH8 plus Y12 = ½ row.
#define SIGMOID8(V, S1, S2) \
	VMULPS Y12, V, V      \ // V = x/2
	TANH8(V, S1, S2)      \
	VFMADD213PS Y12, Y12, V // V = ½·V + ½

// EXP8 rewrites V with e^V: clamp to [expFastLo, expFastHi], split
// V = k·ln2 + z (Cody-Waite), degree-5 polynomial on z, scale by 2^k via
// exponent bits. Expects Y9 = hi row, Y10 = lo row, Y11 = 1.0 row;
// S1/S2/S3 are scratch (S2 holds the int32 k lanes).
#define EXP8(V, S1, S2, S3) \
	VMINPS V, Y9, V                        \ // NaN in V propagates
	VMAXPS V, Y10, V                       \
	VMULPS ·actConsts+480(SB), V, S1       \ // S1 = x·log2e
	VCVTPS2DQ S1, S2                       \ // k (round-to-nearest int32)
	VCVTDQ2PS S2, S1                       \ // kf
	VFNMADD231PS ·actConsts+512(SB), S1, V \ // V −= kf·ln2hi
	VFNMADD231PS ·actConsts+544(SB), S1, V \ // V −= kf·ln2lo  (V = z)
	VMOVUPS ·actConsts+576(SB), S3         \ // S3 = c0
	VFMADD213PS ·actConsts+608(SB), V, S3  \ // … + c1
	VFMADD213PS ·actConsts+640(SB), V, S3  \ // … + c2
	VFMADD213PS ·actConsts+672(SB), V, S3  \ // … + c3
	VFMADD213PS ·actConsts+704(SB), V, S3  \ // … + c4
	VFMADD213PS ·actConsts+736(SB), V, S3  \ // … + c5
	VMULPS V, V, S1                        \ // S1 = z²
	VFMADD213PS V, S1, S3                  \ // S3 = z²·P(z) + z
	VADDPS Y11, S3, S3                     \ // S3 += 1
	VPADDD ·actConsts+832(SB), S2, S2      \ // k + 127
	VPSLLD $23, S2, S2                     \ // 2^k bit pattern
	VMULPS S2, S3, V                         // V = (1+z+z²P)·2^k

// func tanhFastAVX(dst, src *float32, n int)
TEXT ·tanhFastAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPS ·actConsts+0(SB), Y9
	VMOVUPS ·actConsts+32(SB), Y10

tanhloop:
	VMOVUPS (SI), Y0
	TANH8(Y0, Y13, Y14)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  tanhloop
	VZEROUPPER
	RET

// func sigmoidFastAVX(dst, src *float32, n int)
TEXT ·sigmoidFastAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPS ·actConsts+0(SB), Y9
	VMOVUPS ·actConsts+32(SB), Y10
	VMOVUPS ·actConsts+416(SB), Y12

sigloop:
	VMOVUPS (SI), Y0
	SIGMOID8(Y0, Y13, Y14)
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  sigloop
	VZEROUPPER
	RET

// func gruEpilogueFastAVX(h, axz, axr, axc, ahz, ahr, ahc *float32, n int)
//
// One streaming pass over the six gate vectors and the state:
//
//	z  = σ(axz + ahz)
//	r  = σ(axr + ahr)
//	c  = tanh(axc + r·ahc)
//	h′ = (1−z)·h + z·c
//
// Eight states per iteration, everything in-register between loads — the
// separate Sigmoid/Tanh/Hadamard passes and their intermediate buffers
// disappear.
TEXT ·gruEpilogueFastAVX(SB), NOSPLIT, $0-64
	MOVQ h+0(FP), DI
	MOVQ axz+8(FP), SI
	MOVQ axr+16(FP), R8
	MOVQ axc+24(FP), R9
	MOVQ ahz+32(FP), R10
	MOVQ ahr+40(FP), R11
	MOVQ ahc+48(FP), R12
	MOVQ n+56(FP), CX
	VMOVUPS ·actConsts+0(SB), Y9    // +clamp
	VMOVUPS ·actConsts+32(SB), Y10  // −clamp
	VMOVUPS ·actConsts+448(SB), Y11 // 1.0
	VMOVUPS ·actConsts+416(SB), Y12 // 0.5

eploop:
	VMOVUPS (SI), Y0
	VADDPS  (R10), Y0, Y0      // axz + ahz
	SIGMOID8(Y0, Y13, Y14)     // Y0 = z
	VMOVUPS (R8), Y1
	VADDPS  (R11), Y1, Y1      // axr + ahr
	SIGMOID8(Y1, Y13, Y14)     // Y1 = r
	VMOVUPS (R12), Y2          // ahc
	VFMADD213PS (R9), Y1, Y2   // Y2 = r·ahc + axc
	TANH8(Y2, Y13, Y14)        // Y2 = c
	VSUBPS  Y0, Y11, Y3        // Y3 = 1 − z
	VMULPS  (DI), Y3, Y3       // Y3 = (1−z)·h
	VFMADD231PS Y2, Y0, Y3     // Y3 += z·c
	VMOVUPS Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  eploop
	VZEROUPPER
	RET

// func expSubSumFastAVX(dst, src *float32, n int, mx float32) float32
//
// dst[i] = exp(src[i] − mx); returns Σ dst[i] (8-lane float32 accumulator
// reduced at the end) — the vector half of the fast softmax.
TEXT ·expSubSumFastAVX(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS mx+24(FP), Y12
	VMOVUPS ·actConsts+768(SB), Y9  // expFastHi
	VMOVUPS ·actConsts+800(SB), Y10 // expFastLo
	VMOVUPS ·actConsts+448(SB), Y11 // 1.0
	VXORPS Y8, Y8, Y8

exploop:
	VMOVUPS (SI), Y0
	VSUBPS  Y12, Y0, Y0        // x − mx
	EXP8(Y0, Y13, Y14, Y15)
	VMOVUPS Y0, (DI)
	VADDPS  Y0, Y8, Y8
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  exploop

	VEXTRACTF128 $1, Y8, X1
	VADDPS  X1, X8, X8
	VHADDPS X8, X8, X8
	VHADDPS X8, X8, X8
	VMOVSS  X8, ret+32(FP)
	VZEROUPPER
	RET
