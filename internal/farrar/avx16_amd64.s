#include "textflag.h"

// func avx16(prof *byte, rows *[256]uint32, target []byte, segLen int, cols *uint64, bias, gapOE, gapE int) (best int, done bool)
//
// avx8 on the 16 unsigned word lanes of a YMM register: the biased
// unsigned 16-bit rung of ScoreSWAR16, with full word lanes that escalate
// at ceiling16 as the byte lanes do at ceiling8. The one-lane shift is
// avx8's with VPALIGNR $14: each half takes its top word from the half
// below it. Registers are avx8's:
//
//	SI profile base      R8  residue -> row offset table
//	DI next target byte  CX  target bytes left
//	DX column bytes (32*segLen)
//	R9 H load column     R10 H store column     R11 E column
//	BX segment offset    AX  profile row / scratch
//	R12 lazy-F guard per column (segLen*17)     R13 guard left
//
//	Y0 vH   Y1 vF   Y2 vE   Y3 vMax   Y4 vHGap
//	Y5 vBias   Y6 vGapOE   Y7 vGapE   Y8, Y10 scratch   Y9 zero
TEXT ·avx16(SB), NOSPLIT, $0-89
	MOVQ prof+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ target_base+16(FP), DI
	MOVQ target_len+24(FP), CX
	MOVQ segLen+40(FP), AX
	MOVQ AX, DX
	SHLQ $5, DX
	MOVQ AX, R12
	SHLQ $4, R12
	ADDQ AX, R12
	MOVQ cols+48(FP), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	// Splat the three word constants.
	MOVQ bias+56(FP), AX
	VMOVQ AX, X5
	VPBROADCASTW X5, Y5
	MOVQ gapOE+64(FP), AX
	VMOVQ AX, X6
	VPBROADCASTW X6, Y6
	MOVQ gapE+72(FP), AX
	VMOVQ AX, X7
	VPBROADCASTW X7, Y7
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
	VPALIGNR $14, Y8, Y0, Y0
	XORQ BX, BX

segment:
	VPADDUSW (AX)(BX*1), Y0, Y0
	VPSUBUSW Y5, Y0, Y0
	VMOVDQU (R11)(BX*1), Y2
	VPMAXUW Y2, Y0, Y0
	VPMAXUW Y1, Y0, Y0
	VPMAXUW Y0, Y3, Y3
	VMOVDQU Y0, (R10)(BX*1)
	VPSUBUSW Y6, Y0, Y4
	VPSUBUSW Y7, Y2, Y2
	VPMAXUW Y4, Y2, Y2
	VMOVDQU Y2, (R11)(BX*1)
	VPSUBUSW Y7, Y1, Y1
	VPMAXUW Y4, Y1, Y1
	VMOVDQU (R9)(BX*1), Y0
	ADDQ $32, BX
	CMPQ BX, DX
	JNE segment

	// Lazy-F correction, as in avx8: vF -sat threshold is nonzero exactly
	// where vF is greater, and the byte mask of a word compare is all ones
	// exactly when every word is.
	VPERM2I128 $0x08, Y1, Y1, Y8
	VPALIGNR $14, Y8, Y1, Y1
	XORQ BX, BX
	MOVQ R12, R13

lazy:
	VMOVDQU (R10)(BX*1), Y0
	VPSUBUSW Y6, Y0, Y8
	VPSUBUSW Y8, Y1, Y10
	VPCMPEQW Y9, Y10, Y10
	VPMOVMSKB Y10, AX
	CMPL AX, $0xFFFFFFFF
	JEQ next
	TESTQ R13, R13
	JLE fail
	VPMAXUW Y1, Y0, Y0
	VMOVDQU Y0, (R10)(BX*1)
	VPMAXUW Y0, Y3, Y3
	VPSUBUSW Y6, Y0, Y0
	VPMAXUW (R11)(BX*1), Y0, Y2
	VMOVDQU Y2, (R11)(BX*1)
	VPSUBUSW Y7, Y1, Y1
	DECQ R13
	ADDQ $32, BX
	CMPQ BX, DX
	JNE lazy
	XORQ BX, BX
	VPERM2I128 $0x08, Y1, Y1, Y8
	VPALIGNR $14, Y8, Y1, Y1
	JMP lazy

next:
	XCHGQ R9, R10
	INCQ DI
	DECQ CX
	JMP column

finish:
	// Horizontal maximum of vMax: fold the high half onto the low one,
	// then halve the low one down to a word.
	VEXTRACTI128 $1, Y3, X8
	VPMAXUW X8, X3, X3
	VPSRLDQ $8, X3, X8
	VPMAXUW X8, X3, X3
	VPSRLDQ $4, X3, X8
	VPMAXUW X8, X3, X3
	VPSRLDQ $2, X3, X8
	VPMAXUW X8, X3, X3
	VMOVQ X3, AX
	ANDQ $0xFFFF, AX
	VZEROUPPER
	MOVQ AX, best+80(FP)
	MOVB $1, done+88(FP)
	RET

fail:
	VZEROUPPER
	MOVQ $0, best+80(FP)
	MOVB $0, done+88(FP)
	RET
