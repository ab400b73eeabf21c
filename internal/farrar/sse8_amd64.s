#include "textflag.h"

// func sse8(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)
//
// The 8-bit striped kernel of ScoreU8 on SSE2. Registers:
//
//	SI profile base      R8  residue -> row offset table
//	DI next target byte  CX  target bytes left
//	DX column bytes (16*segLen)
//	R9 H load column     R10 H store column     R11 E column
//	BX segment offset    AX  profile row / scratch
//	R12 lazy-F guard per column (segLen*17)     R13 guard left
//
//	X0 vH   X1 vF   X2 vE   X3 vMax   X4 vHGap
//	X5 vBias   X6 vGapOE   X7 vGapE   X8, X10 scratch   X9 zero
TEXT ·sse8(SB), NOSPLIT, $0-89
	MOVQ prof+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ target_base+16(FP), DI
	MOVQ target_len+24(FP), CX
	MOVQ segLen+40(FP), AX
	MOVQ AX, DX
	SHLQ $4, DX
	LEAQ (DX)(AX*1), R12
	MOVQ cols+48(FP), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	// Splat the three byte constants: v * 0x0101010101010101 fills a
	// quadword, PUNPCKLQDQ copies it to the high half.
	MOVQ $0x0101010101010101, BX
	MOVQ bias+56(FP), AX
	IMULQ BX, AX
	MOVQ AX, X5
	PUNPCKLQDQ X5, X5
	MOVQ gapOE+64(FP), AX
	IMULQ BX, AX
	MOVQ AX, X6
	PUNPCKLQDQ X6, X6
	MOVQ gapE+72(FP), AX
	IMULQ BX, AX
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7
	PXOR X3, X3
	PXOR X9, X9

column:
	TESTQ CX, CX
	JEQ finish
	MOVBLZX (DI), AX
	MOVL (R8)(AX*4), AX
	ADDQ SI, AX

	// H of query position l*segLen-1 feeds lane l segment 0: shift the
	// last loaded segment up one lane (zero fill = H[0][j-1] = 0).
	PXOR X1, X1
	MOVOU -16(R9)(DX*1), X0
	PSLLO $1, X0
	XORQ BX, BX

segment:
	MOVOU (AX)(BX*1), X8
	PADDUSB X8, X0
	PSUBUSB X5, X0
	MOVOU (R11)(BX*1), X2
	PMAXUB X2, X0
	PMAXUB X1, X0
	PMAXUB X0, X3
	MOVOU X0, (R10)(BX*1)
	MOVO X0, X4
	PSUBUSB X6, X4
	PSUBUSB X7, X2
	PMAXUB X4, X2
	MOVOU X2, (R11)(BX*1)
	PSUBUSB X7, X1
	PMAXUB X4, X1
	MOVOU (R9)(BX*1), X0
	ADDQ $16, BX
	CMPQ BX, DX
	JNE segment

	// Lazy-F correction. The loop test is AnyGtU8(vF, vHStore[s] -sat
	// gapOE): SSE2 has no unsigned byte compare, so vF -sat threshold is
	// nonzero exactly in the lanes where vF is greater. ScoreU8 skips the
	// updates when max(H, vF) leaves H unchanged; here they always run,
	// which writes the same values: vMax already covers every stored H and
	// E already covers H -sat gapOE.
	PSLLO $1, X1
	XORQ BX, BX
	MOVQ R12, R13

lazy:
	MOVOU (R10)(BX*1), X0
	MOVO X0, X8
	PSUBUSB X6, X8
	MOVO X1, X10
	PSUBUSB X8, X10
	PCMPEQB X9, X10
	PMOVMSKB X10, AX
	CMPL AX, $0xFFFF
	JEQ next
	TESTQ R13, R13
	JLE fail
	PMAXUB X1, X0
	MOVOU X0, (R10)(BX*1)
	PMAXUB X0, X3
	PSUBUSB X6, X0
	MOVOU (R11)(BX*1), X2
	PMAXUB X0, X2
	MOVOU X2, (R11)(BX*1)
	PSUBUSB X7, X1
	DECQ R13
	ADDQ $16, BX
	CMPQ BX, DX
	JNE lazy
	XORQ BX, BX
	PSLLO $1, X1
	JMP lazy

next:
	XCHGQ R9, R10
	INCQ DI
	DECQ CX
	JMP column

finish:
	// Horizontal maximum of vMax.
	MOVO X3, X8
	PSRLO $8, X8
	PMAXUB X8, X3
	MOVO X3, X8
	PSRLO $4, X8
	PMAXUB X8, X3
	MOVO X3, X8
	PSRLO $2, X8
	PMAXUB X8, X3
	MOVO X3, X8
	PSRLO $1, X8
	PMAXUB X8, X3
	MOVQ X3, AX
	ANDQ $0xFF, AX
	MOVQ AX, best+80(FP)
	MOVB $1, done+88(FP)
	RET

fail:
	MOVQ $0, best+80(FP)
	MOVB $0, done+88(FP)
	RET
