//go:build amd64

#include "textflag.h"

// Each routine is its Go loop (elementwise.go, batchnorm.go, conv3d_gemm.go)
// in AVX2, element-wise: every product and sum is its own instruction,
// rounded where the Go code rounds it — never a fused multiply-add — so the
// bits are the Go loop's. None of them reads a slice length: the Go wrappers
// (elementwise_amd64.go) slice each operand to the extent named below.

// Widens the 4 floats at off(r) to float64 in d and normalizes them in
// place: (v − mean)·rstd with mean, rstd in Y12, Y13.
#define NORM4(off, r, d) \
	VCVTPS2PD off(r), d; \
	VSUBPD    Y12, d, d; \
	VMULPD    Y13, d, d

// func normReluAVX2(z, y []float32, mean, rstd float64, gamma, beta float32, blocks int)
//
// For i < 8·blocks: z[i] = x̂ = float32((z[i] − mean)·rstd) and
// y[i] = max(0, γ·x̂ + β), the product rounded before the sum and VMAXPS
// taking +0 (Y15) as its second source, which it returns for NaN, −0 and
// every value ≤ 0 — relu's NaN and −0 to +0.
TEXT ·normReluAVX2(SB), NOSPLIT, $0-80
	MOVQ         z_base+0(FP), SI
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD mean+48(FP), Y12
	VBROADCASTSD rstd+56(FP), Y13
	VBROADCASTSS gamma+64(FP), Y14
	VBROADCASTSS beta+68(FP), Y11
	MOVQ         blocks+72(FP), CX
	VXORPS       Y15, Y15, Y15
	TESTQ        CX, CX
	JZ           normed

norm:
	NORM4(0, SI, Y0)
	NORM4(16, SI, Y1)
	VCVTPD2PSY  Y0, X0
	VCVTPD2PSY  Y1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPS     Y0, (SI)
	VMULPS      Y14, Y0, Y0
	VADDPS      Y11, Y0, Y0
	VMAXPS      Y15, Y0, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         norm

normed:
	VZEROUPPER
	RET

// Four elements of the input gradient from one float32 half x (an xmm
// register) of the gated gradient and x̂ at off(BX), into d (float64):
// k·((m·dy − Σdy) − x̂·Σdy·x̂) with k, m, Σdy, Σdy·x̂ in Y12, Y13, Y14, Y11.
#define INGRAD4(x, off, d) \
	VCVTPS2PD x, d;          \
	VCVTPS2PD off(BX), Y10;  \
	VMULPD    Y13, d, d;     \
	VSUBPD    Y14, d, d;     \
	VMULPD    Y11, Y10, Y10; \
	VSUBPD    Y10, d, d;     \
	VMULPD    Y12, d, d

// func inputGradAVX2(grad, y, h []float32, k, m, sumDy, sumDyXhat float64, blocks int)
//
// For i < 8·blocks: grad[i] = float32(k·((m·dy − Σdy) − x̂·Σdy·x̂)), dy = grad[i]
// where y[i] > 0 and +0 elsewhere (y NaN, ±0 or negative) — a compare that
// is false on NaN (GT_OQ) and an AND, as gate selects — and x̂ = h[i].
TEXT ·inputGradAVX2(SB), NOSPLIT, $0-112
	MOVQ         grad_base+0(FP), SI
	MOVQ         y_base+24(FP), DI
	MOVQ         h_base+48(FP), BX
	VBROADCASTSD k+72(FP), Y12
	VBROADCASTSD m+80(FP), Y13
	VBROADCASTSD sumDy+88(FP), Y14
	VBROADCASTSD sumDyXhat+96(FP), Y11
	MOVQ         blocks+104(FP), CX
	VXORPS       Y15, Y15, Y15
	TESTQ        CX, CX
	JZ           graded

grad:
	VMOVUPS      (DI), Y0
	VCMPPS       $0x1e, Y15, Y0, Y0 // y > 0, false on NaN
	VANDPS       (SI), Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	INGRAD4(X0, 0, Y2)
	INGRAD4(X1, 16, Y3)
	VCVTPD2PSY   Y2, X2
	VCVTPD2PSY   Y3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMOVUPS      Y2, (SI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, BX
	DECQ         CX
	JNZ          grad

graded:
	VZEROUPPER
	RET

// Transposes the 4×4 float block in rows a, b, c, d (xmm registers) into
// them, using X12..X15: a = (a0, b0, c0, d0), b = (a1, b1, c1, d1), …
#define TRANSPOSE4(a, b, c, d) \
	VUNPCKLPS b, a, X12; \
	VUNPCKHPS b, a, X13; \
	VUNPCKLPS d, c, X14; \
	VUNPCKHPS d, c, X15; \
	VMOVLHPS  X14, X12, a; \
	VMOVHLPS  X12, X14, b; \
	VMOVLHPS  X15, X13, c; \
	VMOVHLPS  X13, X15, d

// Gates the 4 gradient floats at (gr)(AX*1) by the 4 outputs at (out)(AX*1):
// x = the gradient where the output is > 0, +0 elsewhere. X11 holds +0.
#define GATE4(gr, out, x) \
	VMOVUPS (out)(AX*1), x;     \
	VCMPPS  $0x1e, X11, x, x;   \
	VANDPS  (gr)(AX*1), x, x

// Adds element t of the four channels — dy in xmm x, x̂ in xmm h — onto the
// Σdy (Y8) and Σdy·x̂ (Y9) lanes, dy before dy·x̂ as bnReduce orders them.
#define REDUCE1(x, h) \
	VCVTPS2PD x, Y10;        \
	VCVTPS2PD h, Y11;        \
	VMULPD    Y11, Y10, Y11; \
	VADDPD    Y10, Y8, Y8;   \
	VADDPD    Y11, Y9, Y9

// func gradSumsAVX2(sumDy, sumDyXhat *[4]float64, grad, y, h *[4][]float32, quads int)
//
// For i < 4·quads, in element order: sumDy[j] += dy and sumDyXhat[j] +=
// dy·x̂ for the four channels j, where dy is grad[j][i] gated by y[j][i] > 0 and
// x̂ = h[j][i]. Channel j is lane j of Y8 (Σdy) and Y9 (Σdy·x̂); each group
// of four elements is transposed so that element t of the four channels is
// one register. AX runs from −16·quads up to 0 against plane pointers set to
// the end of the extent.
TEXT ·gradSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ    quads+40(FP), AX
	SHLQ    $4, AX
	MOVQ    grad+16(FP), CX
	MOVQ    0(CX), SI
	MOVQ    24(CX), DI
	MOVQ    48(CX), R8
	MOVQ    72(CX), R9
	MOVQ    y+24(FP), CX
	MOVQ    0(CX), R10
	MOVQ    24(CX), R11
	MOVQ    48(CX), R12
	MOVQ    72(CX), R13
	MOVQ    h+32(FP), CX
	MOVQ    0(CX), BX
	MOVQ    24(CX), DX
	MOVQ    48(CX), R14
	MOVQ    72(CX), R15
	ADDQ    AX, SI
	ADDQ    AX, DI
	ADDQ    AX, R8
	ADDQ    AX, R9
	ADDQ    AX, R10
	ADDQ    AX, R11
	ADDQ    AX, R12
	ADDQ    AX, R13
	ADDQ    AX, BX
	ADDQ    AX, DX
	ADDQ    AX, R14
	ADDQ    AX, R15
	NEGQ    AX
	MOVQ    sumDy+0(FP), CX
	VMOVUPD (CX), Y8
	MOVQ    sumDyXhat+8(FP), CX
	VMOVUPD (CX), Y9
	TESTQ   AX, AX
	JZ      summed

sum:
	VXORPS  X11, X11, X11
	GATE4(SI, R10, X0)
	GATE4(DI, R11, X1)
	GATE4(R8, R12, X2)
	GATE4(R9, R13, X3)
	VMOVUPS (BX)(AX*1), X4
	VMOVUPS (DX)(AX*1), X5
	VMOVUPS (R14)(AX*1), X6
	VMOVUPS (R15)(AX*1), X7
	TRANSPOSE4(X0, X1, X2, X3)
	TRANSPOSE4(X4, X5, X6, X7)
	REDUCE1(X0, X4)
	REDUCE1(X1, X5)
	REDUCE1(X2, X6)
	REDUCE1(X3, X7)
	ADDQ    $16, AX
	JNZ     sum

summed:
	MOVQ    sumDy+0(FP), CX
	VMOVUPD Y8, (CX)
	MOVQ    sumDyXhat+8(FP), CX
	VMOVUPD Y9, (CX)
	VZEROUPPER
	RET

// func interleaveAVX2(dst, src []float32, stride, cp, blocks int)
//
// For x < 4·blocks and j < 4: dst[x·cp + j] = src[j·stride + x]. Each four
// voxels of the four channel rows are one 4×4 transpose, stored as four
// 16-byte runs cp floats apart.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  stride+48(FP), R8
	MOVQ  cp+56(FP), DX
	MOVQ  blocks+64(FP), CX
	SHLQ  $2, R8                // channel stride in bytes
	LEAQ  (R8)(R8*2), R9        // 3 channels
	SHLQ  $2, DX                // voxel stride in bytes
	LEAQ  (DX)(DX*2), R10       // 3 voxels
	TESTQ CX, CX
	JZ    interleaved

voxels:
	VMOVUPS (SI), X0
	VMOVUPS (SI)(R8*1), X1
	VMOVUPS (SI)(R8*2), X2
	VMOVUPS (SI)(R9*1), X3
	TRANSPOSE4(X0, X1, X2, X3)
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(DX*1)
	VMOVUPS X2, (DI)(DX*2)
	VMOVUPS X3, (DI)(R10*1)
	ADDQ    $16, SI
	LEAQ    (DI)(DX*4), DI
	DECQ    CX
	JNZ     voxels

interleaved:
	VZEROUPPER
	RET
