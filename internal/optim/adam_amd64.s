//go:build amd64

#include "textflag.h"

// func adamAVX2(val, grad, m, v []float32, k *adamStep, quads int)
//
// adamGo (optim.go) four elements a step, for i < 4·quads: the moments in
// float32, the bias corrections, square root and step in float64, each
// operation its own correctly rounded instruction in the Go loop's order —
// never a fused multiply-add — so the bits are the Go loop's.
TEXT ·adamAVX2(SB), NOSPLIT, $0-112
	MOVQ         val_base+0(FP), DI
	MOVQ         grad_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         k+96(FP), AX
	MOVQ         quads+104(FP), CX
	VBROADCASTSS 0(AX), X8   // β1
	VBROADCASTSS 4(AX), X9   // 1 − β1
	VBROADCASTSS 8(AX), X10  // β2
	VBROADCASTSS 12(AX), X11 // 1 − β2
	VBROADCASTSD 16(AX), Y12 // c1
	VBROADCASTSD 24(AX), Y13 // c2
	VBROADCASTSD 32(AX), Y14 // lr
	VBROADCASTSD 40(AX), Y15 // ε
	TESTQ        CX, CX
	JZ           stepped

step:
	VMOVUPS    (SI), X0
	VMULPS     (R8), X8, X1 // β1·m
	VMULPS     X0, X9, X2   // (1 − β1)·g
	VADDPS     X2, X1, X1
	VMOVUPS    X1, (R8)
	VMULPS     (R9), X10, X3 // β2·v
	VMULPS     X0, X11, X4   // (1 − β2)·g
	VMULPS     X0, X4, X4    // ·g
	VADDPS     X4, X3, X3
	VMOVUPS    X3, (R9)
	VCVTPS2PD  X1, Y1
	VDIVPD     Y12, Y1, Y1 // m̂ = m/c1
	VCVTPS2PD  X3, Y3
	VDIVPD     Y13, Y3, Y3 // v̂ = v/c2
	VSQRTPD    Y3, Y3
	VADDPD     Y15, Y3, Y3 // √v̂ + ε
	VMULPD     Y14, Y1, Y1 // lr·m̂
	VDIVPD     Y3, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    (DI), X2
	VSUBPS     X1, X2, X2
	VMOVUPS    X2, (DI)
	ADDQ       $16, DI
	ADDQ       $16, SI
	ADDQ       $16, R8
	ADDQ       $16, R9
	DECQ       CX
	JNZ        step

stepped:
	VZEROUPPER
	RET
