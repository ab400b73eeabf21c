#include "textflag.h"

// func avx8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)
//
// The 8-bit striped kernel of ScoreU8 on the 32 unsigned byte lanes of a
// YMM register. The one-lane shift crosses the two 128-bit halves, which
// VPALIGNR alone cannot: VPERM2I128 $0x08 builds (low half, zero) and
// VPALIGNR $15 takes each half's top byte from the half below it.
// Registers:
//
//	SI profile base      R8  residue -> row offset table
//	DI next target byte  CX  target bytes left
//	DX column bytes (32*segLen)
//	R9 H load column     R10 H store column     R11 E column
//	BX segment offset    AX  profile row / scratch
//	R12 lazy-F guard per column (segLen*33)     R13 guard left
//
//	Y0 vH   Y1 vF   Y2 vE   Y3 vMax   Y4 vHGap
//	Y5 vBias   Y6 vGapOE   Y7 vGapE   Y8, Y10 scratch   Y9 zero
TEXT ·avx8(SB), NOSPLIT, $0-89
	MOVQ prof+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ target_base+16(FP), DI
	MOVQ target_len+24(FP), CX
	MOVQ segLen+40(FP), AX
	MOVQ AX, DX
	SHLQ $5, DX
	LEAQ (DX)(AX*1), R12
	MOVQ cols+48(FP), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	// Splat the three byte constants.
	MOVQ bias+56(FP), AX
	VMOVQ AX, X5
	VPBROADCASTB X5, Y5
	MOVQ gapOE+64(FP), AX
	VMOVQ AX, X6
	VPBROADCASTB X6, Y6
	MOVQ gapE+72(FP), AX
	VMOVQ AX, X7
	VPBROADCASTB X7, Y7
	VPXOR Y3, Y3, Y3
	VPXOR Y9, Y9, Y9

column:
	TESTQ CX, CX
	JEQ finish
	MOVBLZX (DI), AX
	MOVL (R8)(AX*4), AX
	ADDQ SI, AX

	// H of query position l*segLen-1 feeds lane l segment 0: shift the
	// last loaded segment up one lane (zero fill = H[0][j-1] = 0).
	VPXOR Y1, Y1, Y1
	VMOVDQU -32(R9)(DX*1), Y0
	VPERM2I128 $0x08, Y0, Y0, Y8
	VPALIGNR $15, Y8, Y0, Y0
	XORQ BX, BX

segment:
	VPADDUSB (AX)(BX*1), Y0, Y0
	VPSUBUSB Y5, Y0, Y0
	VMOVDQU (R11)(BX*1), Y2
	VPMAXUB Y2, Y0, Y0
	VPMAXUB Y1, Y0, Y0
	VPMAXUB Y0, Y3, Y3
	VMOVDQU Y0, (R10)(BX*1)
	VPSUBUSB Y6, Y0, Y4
	VPSUBUSB Y7, Y2, Y2
	VPMAXUB Y4, Y2, Y2
	VMOVDQU Y2, (R11)(BX*1)
	VPSUBUSB Y7, Y1, Y1
	VPMAXUB Y4, Y1, Y1
	VMOVDQU (R9)(BX*1), Y0
	ADDQ $32, BX
	CMPQ BX, DX
	JNE segment

	// Lazy-F correction. With no unsigned byte compare, vF -sat threshold
	// is nonzero exactly where vF is greater. The updates ScoreU8 skips run
	// always, writing the same values: vMax and E already cover them.
	VPERM2I128 $0x08, Y1, Y1, Y8
	VPALIGNR $15, Y8, Y1, Y1
	XORQ BX, BX
	MOVQ R12, R13

lazy:
	VMOVDQU (R10)(BX*1), Y0
	VPSUBUSB Y6, Y0, Y8
	VPSUBUSB Y8, Y1, Y10
	VPCMPEQB Y9, Y10, Y10
	VPMOVMSKB Y10, AX
	CMPL AX, $0xFFFFFFFF
	JEQ next
	TESTQ R13, R13
	JLE fail
	VPMAXUB Y1, Y0, Y0
	VMOVDQU Y0, (R10)(BX*1)
	VPMAXUB Y0, Y3, Y3
	VPSUBUSB Y6, Y0, Y0
	VPMAXUB (R11)(BX*1), Y0, Y2
	VMOVDQU Y2, (R11)(BX*1)
	VPSUBUSB Y7, Y1, Y1
	DECQ R13
	ADDQ $32, BX
	CMPQ BX, DX
	JNE lazy
	XORQ BX, BX
	VPERM2I128 $0x08, Y1, Y1, Y8
	VPALIGNR $15, Y8, Y1, Y1
	JMP lazy

next:
	XCHGQ R9, R10
	INCQ DI
	DECQ CX
	JMP column

finish:
	// Horizontal maximum of vMax: fold the high half onto the low one,
	// then halve the low one down to a byte.
	VEXTRACTI128 $1, Y3, X8
	VPMAXUB X8, X3, X3
	VPSRLDQ $8, X3, X8
	VPMAXUB X8, X3, X3
	VPSRLDQ $4, X3, X8
	VPMAXUB X8, X3, X3
	VPSRLDQ $2, X3, X8
	VPMAXUB X8, X3, X3
	VPSRLDQ $1, X3, X8
	VPMAXUB X8, X3, X3
	VMOVQ X3, AX
	ANDQ $0xFF, AX
	VZEROUPPER
	MOVQ AX, best+80(FP)
	MOVB $1, done+88(FP)
	RET

fail:
	VZEROUPPER
	MOVQ $0, best+80(FP)
	MOVB $0, done+88(FP)
	RET
