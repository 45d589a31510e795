//go:build !purego

#include "textflag.h"

// func dotSegF64AVX(vals *float32, rows *int32, groups, nc int, b, y *float32)
//
// Exact-tier float32 whole-segment driver: processes groups×8 rows of a
// contiguous row-major float32 panel (row stride nc) against the shared
// gathered input b[0:nc], accumulating y[rows[k]] += float32(dot_k) in
// row-list order, where dot_k is DotF64(row k, b) to the bit.
//
// The vectorization runs ACROSS rows: each of a group's eight rows owns one
// float64 lane of Y0 (rows 0-3) or Y1 (rows 4-7), and both accumulators
// advance over the columns in strictly increasing order. VCVTPS2PD is exact,
// VMULPD/VADDPD round each element exactly like the scalar mulsd/addsd of
// the Go loop, and FMA is deliberately not used (the dotbatch_amd64.s rule),
// so no row's rounding sequence can differ from DotF64's.
//
// Rows are stride nc apart in memory while a lane vector wants one column of
// four rows, so something has to be transposed. Transposing the float32
// weights first costs a shuffle-port µop per VCVTPS2PD ymm, xmm on top of
// the transpose itself; instead each row converts four consecutive columns
// straight from memory (VCVTPS2PD ymm, m128 issues no shuffle µop),
// multiplies them by the once-converted float64(b[k..k+3]) — the products
// are exact, 24+24 significant bits — and the 4×4 transpose runs on the
// products: four VUNPCK{L,H}PD and four VPERM2F128 per sixteen MACs. The
// four transposed vectors then feed the accumulator in column order.
//
// The main loop reads sixteen bytes at columns k..k+3 with k+4 ≤ nc and the
// tail inserts one float32 at a time, so no load ever passes vals[rows·nc]
// or b[nc] (mapped programs alias the last pages of a file).
//
// Row r of a group lives at SI + r·R13; R9, R10, R11 hold 3, 5 and 7 strides
// so every row is one addressing mode off the single advancing pointer.
TEXT ·dotSegF64AVX(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), R8
	MOVQ rows+8(FP), R14
	MOVQ groups+16(FP), R12
	MOVQ nc+24(FP), R13
	MOVQ b+32(FP), DX
	MOVQ y+40(FP), BX
	MOVQ R13, R15               // R15 = nc (column count)
	SHLQ $2, R13                // R13 = row stride in bytes
	LEAQ (R13)(R13*2), R9       // 3 strides
	LEAQ (R13)(R13*4), R10      // 5 strides
	LEAQ (R9)(R13*4), R11       // 7 strides
	VXORPS X15, X15, X15        // zero merge source for scalar converts

segf64group:
	MOVQ R8, SI                 // row 0 of the group
	MOVQ DX, DI                 // rewind the shared input
	MOVQ R15, CX
	VXORPD Y0, Y0, Y0           // rows 0-3 accumulators
	VXORPD Y1, Y1, Y1           // rows 4-7 accumulators
	CMPQ CX, $4
	JL   segf64tail

segf64main:
	VCVTPS2PD (DI), Y2          // float64(b[k..k+3])

	VCVTPS2PD (SI), Y4          // rows 0-3: products of columns k..k+3
	VCVTPS2PD (SI)(R13*1), Y5
	VCVTPS2PD (SI)(R13*2), Y6
	VCVTPS2PD (SI)(R9*1), Y7
	VMULPD Y2, Y4, Y4
	VMULPD Y2, Y5, Y5
	VMULPD Y2, Y6, Y6
	VMULPD Y2, Y7, Y7
	VUNPCKLPD Y5, Y4, Y8        // [r0c0 r1c0 r0c2 r1c2]
	VUNPCKHPD Y5, Y4, Y9        // [r0c1 r1c1 r0c3 r1c3]
	VUNPCKLPD Y7, Y6, Y10       // [r2c0 r3c0 r2c2 r3c2]
	VUNPCKHPD Y7, Y6, Y11       // [r2c1 r3c1 r2c3 r3c3]
	VPERM2F128 $0x20, Y10, Y8, Y4  // column k   of rows 0-3
	VPERM2F128 $0x20, Y11, Y9, Y5  // column k+1
	VPERM2F128 $0x31, Y10, Y8, Y6  // column k+2
	VPERM2F128 $0x31, Y11, Y9, Y7  // column k+3
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y0, Y0

	VCVTPS2PD (SI)(R13*4), Y4   // rows 4-7, same shape
	VCVTPS2PD (SI)(R10*1), Y5
	VCVTPS2PD (SI)(R9*2), Y6
	VCVTPS2PD (SI)(R11*1), Y7
	VMULPD Y2, Y4, Y4
	VMULPD Y2, Y5, Y5
	VMULPD Y2, Y6, Y6
	VMULPD Y2, Y7, Y7
	VUNPCKLPD Y5, Y4, Y8
	VUNPCKHPD Y5, Y4, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	VADDPD Y4, Y1, Y1
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y1, Y1

	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  segf64main

segf64tail:
	TESTQ CX, CX
	JZ   segf64scatter

segf64tailloop:
	VBROADCASTSS (DI), X2       // float64(b[k]) in every lane
	VCVTPS2PD X2, Y2
	VMOVSS (SI), X4             // column k of rows 0-3, one float at a time
	VINSERTPS $0x10, (SI)(R13*1), X4, X4
	VINSERTPS $0x20, (SI)(R13*2), X4, X4
	VINSERTPS $0x30, (SI)(R9*1), X4, X4
	VCVTPS2PD X4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMOVSS (SI)(R13*4), X5      // rows 4-7
	VINSERTPS $0x10, (SI)(R10*1), X5, X5
	VINSERTPS $0x20, (SI)(R9*2), X5, X5
	VINSERTPS $0x30, (SI)(R11*1), X5, X5
	VCVTPS2PD X5, Y5
	VMULPD Y2, Y5, Y5
	VADDPD Y5, Y1, Y1
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  segf64tailloop

segf64scatter:
	// y[rows[k]] += float32(acc_k), k = 0..7 in order — VCVTSD2SS then
	// VADDSS reproduce Go's float32 conversion and addition exactly.
	MOVL (R14), AX
	VCVTSD2SS X0, X15, X6
	VMOVSS (BX)(AX*4), X9
	VADDSS X6, X9, X9
	VMOVSS X9, (BX)(AX*4)
	MOVL 4(R14), AX
	VUNPCKHPD X0, X0, X7
	VCVTSD2SS X7, X15, X7
	VMOVSS (BX)(AX*4), X9
	VADDSS X7, X9, X9
	VMOVSS X9, (BX)(AX*4)
	VEXTRACTF128 $1, Y0, X8
	MOVL 8(R14), AX
	VCVTSD2SS X8, X15, X6
	VMOVSS (BX)(AX*4), X9
	VADDSS X6, X9, X9
	VMOVSS X9, (BX)(AX*4)
	MOVL 12(R14), AX
	VUNPCKHPD X8, X8, X8
	VCVTSD2SS X8, X15, X8
	VMOVSS (BX)(AX*4), X9
	VADDSS X8, X9, X9
	VMOVSS X9, (BX)(AX*4)
	MOVL 16(R14), AX
	VCVTSD2SS X1, X15, X6
	VMOVSS (BX)(AX*4), X9
	VADDSS X6, X9, X9
	VMOVSS X9, (BX)(AX*4)
	MOVL 20(R14), AX
	VUNPCKHPD X1, X1, X7
	VCVTSD2SS X7, X15, X7
	VMOVSS (BX)(AX*4), X9
	VADDSS X7, X9, X9
	VMOVSS X9, (BX)(AX*4)
	VEXTRACTF128 $1, Y1, X8
	MOVL 24(R14), AX
	VCVTSD2SS X8, X15, X6
	VMOVSS (BX)(AX*4), X9
	VADDSS X6, X9, X9
	VMOVSS X9, (BX)(AX*4)
	MOVL 28(R14), AX
	VUNPCKHPD X8, X8, X8
	VCVTSD2SS X8, X15, X8
	VMOVSS (BX)(AX*4), X9
	VADDSS X8, X9, X9
	VMOVSS X9, (BX)(AX*4)

	LEAQ (R8)(R13*8), R8        // next group's row 0
	ADDQ $32, R14
	DECQ R12
	JNZ  segf64group
	VZEROUPPER
	RET
