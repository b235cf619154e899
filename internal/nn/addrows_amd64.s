//go:build amd64

#include "textflag.h"

// func addRows(dst, src []float32, rows, n, stride int)
//
// dst[r·stride + i] += src[r·stride + i] for r < rows, i < n. SSE2 only —
// part of the amd64 baseline, so there is nothing to detect — and each lane
// is the same single rounded add as the scalar loop.
TEXT ·addRows(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  rows+48(FP), R8
	MOVQ  n+56(FP), R9
	MOVQ  stride+64(FP), R10
	SHLQ  $2, R10               // row stride in bytes
	TESTQ R8, R8
	JLE   done

row:
	MOVQ DI, AX                 // cursors within the row
	MOVQ SI, BX
	MOVQ R9, CX
	SUBQ $8, CX
	JL   tail4

loop8:
	MOVUPS (AX), X0
	MOVUPS 16(AX), X1
	MOVUPS (BX), X2
	MOVUPS 16(BX), X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	MOVUPS X0, (AX)
	MOVUPS X1, 16(AX)
	ADDQ   $32, AX
	ADDQ   $32, BX
	SUBQ   $8, CX
	JGE    loop8

tail4:
	ADDQ   $8, CX               // 0..7 elements left
	CMPQ   CX, $4
	JL     tail1
	MOVUPS (AX), X0
	MOVUPS (BX), X2
	ADDPS  X2, X0
	MOVUPS X0, (AX)
	ADDQ   $16, AX
	ADDQ   $16, BX
	SUBQ   $4, CX

tail1:
	TESTQ CX, CX
	JZ    next

loop1:
	MOVSS (AX), X0
	ADDSS (BX), X0
	MOVSS X0, (AX)
	ADDQ  $4, AX
	ADDQ  $4, BX
	DECQ  CX
	JNZ   loop1

next:
	ADDQ R10, DI
	ADDQ R10, SI
	DECQ R8
	JNZ  row

done:
	RET
