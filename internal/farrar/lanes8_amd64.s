#include "textflag.h"

// func lanesAVX2(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int)
//
// The lane kernel (lanes.go): one database sequence per byte lane, one
// target column per pass over the query rows. The score gather
// broadcasts each 16-byte half of the query residue's 32-byte profile row
// to both register halves, shuffles both by the lanes' residue indices
// (VPSHUFB reads bits 0-3) and blends on bit 4, moved to bit 7 by a word
// shift. The recurrence is Farrar's unsigned one without the lazy-F pass:
//
//	H = max((diag +sat score) -sat bias, E, F)   vMax = max(vMax, H)
//	E = max(E -sat gapE, H -sat gapOE)           F = max(F -sat gapE, H -sat gapOE)
//
// with diag the previous column's H one row up. A column whose index
// bytes carry laneStart (bit 6) first stores vMax to the next harvest
// slot; then keep, 0xFF in every lane without the flag, zeroes the
// starting lanes' vMax and the H and E they load.
//
//	SI profile row       R8  profile bytes (32*m)   R12 profile end
//	CX column            DX  columns end
//	DI he base           R11 he row (H at 0, E at 32)
//	R9 next harvest slot R13 harvest base           BX  vmax
//	R10 profile cursor   AX  scratch
//
//	Y0 idx   Y1 sel   Y2 keep   Y3 vBias   Y4 vGapOE   Y5 vGapE
//	Y6 vMax  Y7 diag  Y8 H      Y9 E       Y10 F       Y12, Y13 score
//	Y15 laneStart splat
TEXT ·lanesAVX2(SB), NOSPLIT, $0-152
	MOVQ prof_base+0(FP), SI
	MOVQ prof_len+8(FP), R8
	MOVQ cols_base+24(FP), CX
	MOVQ cols_len+32(FP), DX
	ADDQ CX, DX
	MOVQ he_base+48(FP), DI
	MOVQ harvest_base+72(FP), R9
	MOVQ R9, R13
	MOVQ vmax_base+96(FP), BX
	VMOVDQU (BX), Y6
	LEAQ (SI)(R8*1), R12

	// Splat the byte constants.
	MOVQ bias+120(FP), AX
	VMOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ gapOE+128(FP), AX
	VMOVQ AX, X4
	VPBROADCASTB X4, Y4
	MOVQ gapE+136(FP), AX
	VMOVQ AX, X5
	VPBROADCASTB X5, Y5
	MOVQ $0x40, AX
	VMOVQ AX, X15
	VPBROADCASTB X15, Y15

column:
	VMOVDQU (CX), Y0
	VPSLLW $3, Y0, Y1
	VPCMPGTB Y0, Y15, Y2
	VPMOVMSKB Y2, AX
	CMPL AX, $0xFFFFFFFF
	JEQ rows
	VMOVDQU Y6, (R9)
	ADDQ $32, R9
	VPAND Y2, Y6, Y6

rows:
	// Row 0's diagonal and F enter from the zero boundary.
	VPXOR Y7, Y7, Y7
	VPXOR Y10, Y10, Y10
	MOVQ SI, R10
	MOVQ DI, R11

row:
	VBROADCASTI128 (R10), Y12
	VBROADCASTI128 16(R10), Y13
	VPSHUFB Y0, Y12, Y12
	VPSHUFB Y0, Y13, Y13
	VPBLENDVB Y1, Y13, Y12, Y12
	VPADDUSB Y12, Y7, Y8
	VPSUBUSB Y3, Y8, Y8
	VPAND 32(R11), Y2, Y9
	VPMAXUB Y9, Y8, Y8
	VPMAXUB Y10, Y8, Y8
	VPMAXUB Y8, Y6, Y6
	VPAND (R11), Y2, Y7
	VMOVDQU Y8, (R11)
	VPSUBUSB Y4, Y8, Y8
	VPSUBUSB Y5, Y9, Y9
	VPMAXUB Y8, Y9, Y9
	VMOVDQU Y9, 32(R11)
	VPSUBUSB Y5, Y10, Y10
	VPMAXUB Y8, Y10, Y10
	ADDQ $32, R10
	ADDQ $64, R11
	CMPQ R10, R12
	JNE row

	ADDQ $32, CX
	CMPQ CX, DX
	JNE column

	VMOVDQU Y6, (BX)
	VZEROUPPER
	SUBQ R13, R9
	SHRQ $5, R9
	MOVQ R9, slots+144(FP)
	RET
