#include "textflag.h"

// func lanes64(prof, cols, he, harvest, vmax []byte, bias, gapOE, gapE int) (slots int)
//
// The lane kernel (lanes.go) on the 64 byte lanes of a ZMM register: the
// recurrence of lanesAVX2 (lanes8_amd64.s) with an AVX-512 gather and lane
// reset. The query residue's 32-byte profile row is loaded into the low
// half of a register and VPERMB picks each lane's score by its residue
// index: it reads bits 0-5, an index is below 32 and the laneStart flag in
// bit 6 is ignored, so no blend is needed. VPTESTNMB against the
// laneStart splat sets K1 on the lanes without the flag; a column where
// K1 is not all ones first stores vMax to the next harvest slot and zeroes
// the starting lanes' vMax, and every row's zero-masked loads of H and E
// under K1 reset the starting lanes.
//
//	SI profile row       R8  profile bytes (32*m)   R12 profile end
//	CX column            DX  columns end
//	DI he base           R11 he row (H at 0, E at 64)
//	R9 next harvest slot R13 harvest base           BX  vmax
//	R10 profile cursor   AX  scratch
//
//	Z0 idx   K1 keep   Z3 vBias   Z4 vGapOE   Z5 vGapE
//	Z6 vMax  Z7 diag   Z8 H       Z9 E        Z10 F      Z12 score
//	Z15 laneStart splat
TEXT ·lanes64(SB), NOSPLIT, $0-152
	MOVQ prof_base+0(FP), SI
	MOVQ prof_len+8(FP), R8
	MOVQ cols_base+24(FP), CX
	MOVQ cols_len+32(FP), DX
	ADDQ CX, DX
	MOVQ he_base+48(FP), DI
	MOVQ harvest_base+72(FP), R9
	MOVQ R9, R13
	MOVQ vmax_base+96(FP), BX
	VMOVDQU64 (BX), Z6
	LEAQ (SI)(R8*1), R12

	// Splat the byte constants.
	MOVQ bias+120(FP), AX
	VPBROADCASTB AX, Z3
	MOVQ gapOE+128(FP), AX
	VPBROADCASTB AX, Z4
	MOVQ gapE+136(FP), AX
	VPBROADCASTB AX, Z5
	MOVQ $0x40, AX
	VPBROADCASTB AX, Z15

column:
	VMOVDQU64 (CX), Z0
	VPTESTNMB Z15, Z0, K1
	KORTESTQ K1, K1
	JCS rows
	VMOVDQU64 Z6, (R9)
	ADDQ $64, R9
	VMOVDQU8.Z Z6, K1, Z6

rows:
	// Row 0's diagonal and F enter from the zero boundary.
	VPXORD Z7, Z7, Z7
	VPXORD Z10, Z10, Z10
	MOVQ SI, R10
	MOVQ DI, R11

row:
	VMOVDQU (R10), Y12
	VPERMB Z12, Z0, Z12
	VPADDUSB Z12, Z7, Z8
	VPSUBUSB Z3, Z8, Z8
	VMOVDQU8.Z 64(R11), K1, Z9
	VPMAXUB Z9, Z8, Z8
	VPMAXUB Z10, Z8, Z8
	VPMAXUB Z8, Z6, Z6
	VMOVDQU8.Z (R11), K1, Z7
	VMOVDQU64 Z8, (R11)
	VPSUBUSB Z4, Z8, Z8
	VPSUBUSB Z5, Z9, Z9
	VPMAXUB Z8, Z9, Z9
	VMOVDQU64 Z9, 64(R11)
	VPSUBUSB Z5, Z10, Z10
	VPMAXUB Z8, Z10, Z10
	ADDQ $32, R10
	ADDQ $128, R11
	CMPQ R10, R12
	JNE row

	ADDQ $64, CX
	CMPQ CX, DX
	JNE column

	VMOVDQU64 Z6, (BX)
	VZEROUPPER
	SUBQ R13, R9
	SHRQ $6, R9
	MOVQ R9, slots+144(FP)
	RET
