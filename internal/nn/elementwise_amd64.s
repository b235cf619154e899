//go:build amd64

#include "textflag.h"

// Each routine is its Go loop (elementwise.go, batchnorm.go, conv3d_gemm.go,
// pool3d.go) in AVX2, element-wise: every product and sum is its own
// instruction, rounded where the Go code rounds it — never a fused
// multiply-add — and every compare keeps what the Go code keeps, so the bits
// are the Go loop's. None of them reads a slice length: the Go wrappers
// (elementwise_amd64.go) slice each operand to the extent named below.

// Widens the 4 floats at off(r) to float64 in d and normalizes them in
// place: (v − mean)·rstd with mean, rstd in Y12, Y13.
#define NORM4(off, r, d) \
	VCVTPS2PD off(r), d; \
	VSUBPD    Y12, d, d; \
	VMULPD    Y13, d, d

// The walk of a plane (rowWalk, elementwise.go) in AX drives the loops below
// it: slabs in R10, rows in R9, and per row eight voxels a step in CX, then
// four if the row's quads are odd. The bordered plane's pointer out steps
// over the gaps between rows and between slabs; the plain planes' pointers
// run on.
#define WALK_SLAB \
	MOVQ 16(AX), R10

#define WALK_ROW \
	MOVQ 8(AX), R9

#define WALK_OCTS(quad) \
	MOVQ 0(AX), CX; \
	SHRQ $1, CX;    \
	JZ   quad

#define WALK_QUAD(end) \
	MOVQ  0(AX), CX; \
	TESTQ $1, CX;    \
	JZ    end

#define WALK_NEXT(row, slab, out) \
	ADDQ 24(AX), out; \
	DECQ R9;          \
	JNZ  row;         \
	ADDQ 32(AX), out; \
	DECQ R10;         \
	JNZ  slab

// func normReluAVX2(z, y []float32, mean, rstd float64, gamma, beta float32, walk *rowWalk)
//
// For each of the walk's voxels: z[i] = x̂ = float32((z[i] − mean)·rstd), z
// plain, and y = max(0, γ·x̂ + β) at the voxel's place in the walked plane,
// the product rounded before the sum and VMAXPS taking +0 (Y15) as its
// second source, which it returns for NaN, −0 and every value ≤ 0 — relu's
// NaN and −0 to +0. The walk has at least one quad.
TEXT ·normReluAVX2(SB), NOSPLIT, $0-80
	MOVQ         z_base+0(FP), SI
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD mean+48(FP), Y12
	VBROADCASTSD rstd+56(FP), Y13
	VBROADCASTSS gamma+64(FP), Y14
	VBROADCASTSS beta+68(FP), Y11
	MOVQ         walk+72(FP), AX
	VXORPS       Y15, Y15, Y15
	WALK_SLAB

normSlab:
	WALK_ROW

normRow:
	WALK_OCTS(normQuad)

norm8:
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
	JNZ         norm8

normQuad:
	WALK_QUAD(normNext)
	NORM4(0, SI, Y0)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (SI)
	VMULPS     X14, X0, X0
	VADDPS     X11, X0, X0
	VMAXPS     X15, X0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI

normNext:
	WALK_NEXT(normRow, normSlab, DI)
	VZEROUPPER
	RET

// Four elements of the input gradient from the gated gradient (xmm x) and
// x̂ (xmm or memory h) into d (float64), through the temporary t:
// k·((m·dy − Σdy) − x̂·Σdy·x̂) with k, m, Σdy, Σdy·x̂ in Y12, Y13, Y14, Y11.
#define INGRAD4(x, h, d, t) \
	VCVTPS2PD x, d;    \
	VCVTPS2PD h, t;    \
	VMULPD    Y13, d, d; \
	VSUBPD    Y14, d, d; \
	VMULPD    Y11, t, t; \
	VSUBPD    t, d, d;   \
	VMULPD    Y12, d, d

// func inputGradAVX2(grad, h, out []float32, k, m, sumDy, sumDyXhat float64, gamma, beta float32, walk *rowWalk)
//
// For each of the walk's voxels: grad[i] = float32(k·((m·dy − Σdy) −
// x̂·Σdy·x̂)), grad and h plain, stored over grad[i] and at the voxel's place
// in the walked plane out, where x̂ = h[i] and dy = grad[i] where γ·x̂ + β > 0
// and +0 elsewhere — the ReLU's gate rebuilt from x̂: the product rounded
// before the sum, a compare that is false on NaN (GT_OQ) and an AND, as
// gateAffine selects. The walk has at least one quad.
TEXT ·inputGradAVX2(SB), NOSPLIT, $0-120
	MOVQ         grad_base+0(FP), SI
	MOVQ         h_base+24(FP), BX
	MOVQ         out_base+48(FP), DI
	VBROADCASTSD k+72(FP), Y12
	VBROADCASTSD m+80(FP), Y13
	VBROADCASTSD sumDy+88(FP), Y14
	VBROADCASTSD sumDyXhat+96(FP), Y11
	VBROADCASTSS gamma+104(FP), Y8
	VBROADCASTSS beta+108(FP), Y9
	MOVQ         walk+112(FP), AX
	VXORPS       Y15, Y15, Y15
	WALK_SLAB

gradSlab:
	WALK_ROW

gradRow:
	WALK_OCTS(gradQuad)

grad8:
	VMOVUPS      (BX), Y4
	VMULPS       Y8, Y4, Y0
	VADDPS       Y9, Y0, Y0
	VCMPPS       $0x1e, Y15, Y0, Y0 // γ·x̂ + β > 0, false on NaN
	VANDPS       (SI), Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	INGRAD4(X0, X4, Y2, Y10)
	INGRAD4(X1, 16(BX), Y3, Y6)
	VCVTPD2PSY   Y2, X2
	VCVTPD2PSY   Y3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMOVUPS      Y2, (SI)
	VMOVUPS      Y2, (DI)
	ADDQ         $32, SI
	ADDQ         $32, BX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          grad8

gradQuad:
	WALK_QUAD(gradNext)
	VMOVUPS    (BX), X4
	VMULPS     X8, X4, X0
	VADDPS     X9, X0, X0
	VCMPPS     $0x1e, X15, X0, X0
	VANDPS     (SI), X0, X0
	INGRAD4(X0, X4, Y2, Y10)
	VCVTPD2PSY Y2, X2
	VMOVUPS    X2, (SI)
	VMOVUPS    X2, (DI)
	ADDQ       $16, SI
	ADDQ       $16, BX
	ADDQ       $16, DI

gradNext:
	WALK_NEXT(gradRow, gradSlab, DI)
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

// Gates the four channels' element t — dy in xmm x, x̂ in xmm h, lane j
// channel j — by γ·x̂ + β > 0, with γ at (R10) and β at 16(R10), the product
// rounded before the sum, as gateAffine selects.
#define GATE1(x, h) \
	VMULPS  (R10), h, X10;     \
	VADDPS  16(R10), X10, X10; \
	VXORPS  X11, X11, X11;     \
	VCMPPS  $0x1e, X11, X10, X10; \
	VANDPS  X10, x, x

// Adds element t of the four channels — dy in xmm x, x̂ in xmm h — onto the
// Σdy (Y8) and Σdy·x̂ (Y9) lanes, dy before dy·x̂ as bnReduce orders them.
#define REDUCE1(x, h) \
	VCVTPS2PD x, Y10;        \
	VCVTPS2PD h, Y11;        \
	VMULPD    Y11, Y10, Y11; \
	VADDPD    Y10, Y8, Y8;   \
	VADDPD    Y11, Y9, Y9

// func gradSumsAVX2(sumDy, sumDyXhat *[4]float64, grad, h *[4][]float32, aff *laneAffine, quads int)
//
// For i < 4·quads, in element order: sumDy[j] += dy and sumDyXhat[j] +=
// dy·x̂ for the four channels j, where x̂ = h[j][i] and dy is grad[j][i]
// gated by γ_j·x̂ + β_j > 0 (aff). Channel j is lane j of Y8 (Σdy) and Y9
// (Σdy·x̂); each group of four elements is transposed so that element t of
// the four channels is one register. AX runs from −16·quads up to 0 against
// plane pointers set to the end of the extent.
TEXT ·gradSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ    quads+40(FP), AX
	SHLQ    $4, AX
	MOVQ    grad+16(FP), CX
	MOVQ    0(CX), SI
	MOVQ    24(CX), DI
	MOVQ    48(CX), R8
	MOVQ    72(CX), R9
	MOVQ    h+24(FP), CX
	MOVQ    0(CX), BX
	MOVQ    24(CX), DX
	MOVQ    48(CX), R14
	MOVQ    72(CX), R15
	MOVQ    aff+32(FP), R10
	ADDQ    AX, SI
	ADDQ    AX, DI
	ADDQ    AX, R8
	ADDQ    AX, R9
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
	VMOVUPS (SI)(AX*1), X0
	VMOVUPS (DI)(AX*1), X1
	VMOVUPS (R8)(AX*1), X2
	VMOVUPS (R9)(AX*1), X3
	VMOVUPS (BX)(AX*1), X4
	VMOVUPS (DX)(AX*1), X5
	VMOVUPS (R14)(AX*1), X6
	VMOVUPS (R15)(AX*1), X7
	TRANSPOSE4(X0, X1, X2, X3)
	TRANSPOSE4(X4, X5, X6, X7)
	GATE1(X0, X4)
	REDUCE1(X0, X4)
	GATE1(X1, X5)
	REDUCE1(X1, X5)
	GATE1(X2, X6)
	REDUCE1(X2, X6)
	GATE1(X3, X7)
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

// The maximum of one window row's two columns into the running maximum Y2:
// the 16 floats at lo and hi, the input columns of 8 pooled voxels, split
// into their even (Y3) and odd (Y4) columns, each taken in turn as VMAXPS's
// first source and the running maximum as its second — which VMAXPS returns
// unless the first is greater, as greater keeps it.
#define POOLROW(lo, hi) \
	VMOVUPS lo, Y0;              \
	VMOVUPS hi, Y1;              \
	VSHUFPS $0x88, Y1, Y0, Y3;   \
	VSHUFPS $0xDD, Y1, Y0, Y4;   \
	VMAXPS  Y2, Y3, Y2;          \
	VMAXPS  Y2, Y4, Y2

// func maxPoolAVX2(dst, src []float32, wp, plane, owp, oplane, od, oh, blocks int)
//
// 2×2×2 max pooling of one channel: for z < od, y < oh and x < 8·blocks,
// dst[z·oplane + y·owp + x] is the maximum of the window at
// src[2z·plane + 2y·wp + 2x], its eight elements taken in (z, y, x) order,
// the first as the running maximum. Eight pooled voxels are a step. The
// shuffles that split even from odd columns leave the voxels in the order
// 0, 1, 4, 5, 2, 3, 6, 7, which VPERMPD undoes before the store.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-104
	MOVQ  dst_base+0(FP), AX    // plane z's first pooled row
	MOVQ  src_base+24(FP), BX   // plane z's first window row
	MOVQ  wp+48(FP), R8
	SHLQ  $2, R8                // input row stride in bytes
	MOVQ  plane+56(FP), R9
	SHLQ  $2, R9                // input plane stride in bytes
	LEAQ  (R8)(R9*1), R10       // the next row of the next plane
	MOVQ  od+80(FP), DX
	TESTQ DX, DX
	JZ    pooled

planes:
	MOVQ BX, R11
	MOVQ AX, R12
	MOVQ oh+88(FP), R13

rows:
	MOVQ R11, SI
	MOVQ R12, DI
	MOVQ blocks+96(FP), CX

voxels:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0xDD, Y1, Y0, Y4
	VSHUFPS $0x88, Y1, Y0, Y2
	VMAXPS  Y2, Y4, Y2
	POOLROW((SI)(R8*1), 32(SI)(R8*1))
	POOLROW((SI)(R9*1), 32(SI)(R9*1))
	POOLROW((SI)(R10*1), 32(SI)(R10*1))
	VPERMPD $0xD8, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     voxels

	LEAQ (R11)(R8*2), R11       // two window rows on
	MOVQ owp+64(FP), SI
	LEAQ (R12)(SI*4), R12
	DECQ R13
	JNZ  rows

	LEAQ (BX)(R9*2), BX         // two window planes on
	MOVQ oplane+72(FP), SI
	LEAQ (AX)(SI*4), AX
	DECQ DX
	JNZ  planes

pooled:
	VZEROUPPER
	RET

// The first corners of eight windows, two input columns apart.
DATA poolCorners<>+0(SB)/4, $0
DATA poolCorners<>+4(SB)/4, $2
DATA poolCorners<>+8(SB)/4, $4
DATA poolCorners<>+12(SB)/4, $6
DATA poolCorners<>+16(SB)/4, $8
DATA poolCorners<>+20(SB)/4, $10
DATA poolCorners<>+24(SB)/4, $12
DATA poolCorners<>+28(SB)/4, $14
GLOBL poolCorners<>(SB), RODATA|NOPTR, $32

// One window element, v, against the running maximum Y2 of eight windows:
// where v is greater (GT_OQ, false on NaN, as greater compares) it replaces
// the maximum, and the running winner's offset Y5 becomes the element's,
// the int32 at tap(R15).
#define ARGSTEP(v, tap) \
	VCMPPS       $0x1e, Y2, v, Y6; \
	VBLENDVPS    Y6, v, Y2, Y2;    \
	VPBROADCASTD tap(R15), Y7;     \
	VBLENDVPS    Y6, Y7, Y5, Y5

// One window row's two columns, the 16 floats at lo and hi split into their
// even (Y3) and odd (Y4) columns, as ARGSTEPs in that order.
#define ARGROW(lo, hi, t0, t1) \
	VMOVUPS lo, Y0;            \
	VMOVUPS hi, Y1;            \
	VSHUFPS $0x88, Y1, Y0, Y3; \
	VSHUFPS $0xDD, Y1, Y0, Y4; \
	ARGSTEP(Y3, t0);           \
	ARGSTEP(Y4, t1)

// ARGSTEP and ARGROW for four windows, in the low halves: the 8 floats at
// lo and hi split in order, with no lanes to restore.
#define ARGSTEP4(v, tap) \
	VCMPPS       $0x1e, X2, v, X6; \
	VBLENDVPS    X6, v, X2, X2;    \
	VPBROADCASTD tap(R15), X7;     \
	VBLENDVPS    X6, X7, X5, X5

#define ARGROW4(lo, hi, t0, t1) \
	VMOVUPS lo, X0;            \
	VMOVUPS hi, X1;            \
	VSHUFPS $0x88, X1, X0, X3; \
	VSHUFPS $0xDD, X1, X0, X4; \
	ARGSTEP4(X3, t0);          \
	ARGSTEP4(X4, t1)

// func maxPoolArgAVX2(dst []float32, arg []int32, src []float32, corner int, p *argPool)
//
// 2×2×2 max pooling with argmax of one pooled plane (argPool, elementwise.go):
// for y < p.oh and x < 8·p.blocks + 4·p.half, dst[y·owp + x] is the maximum
// of the window at src[2y·wp + 2x], its eight elements taken in (z, y, x)
// order, the first as the running maximum, and arg[y·aw + x] is corner +
// y·w2 + 2x plus the winner's p.taps entry. Eight pooled voxels are a step,
// then four if p.half is set. The shuffles that split even from odd columns
// leave eight voxels in the order 0, 1, 4, 5, 2, 3, 6, 7, which VPERMPD
// undoes before the stores.
TEXT ·maxPoolArgAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), R12  // the pooled row
	MOVQ         arg_base+24(FP), R13 // its argmax row
	MOVQ         src_base+48(FP), R11 // its first window row
	MOVQ         corner+72(FP), DX    // its first window's plain index
	MOVQ         p+80(FP), R15
	MOVQ         0(R15), R8
	SHLQ         $2, R8               // input row stride in bytes
	MOVQ         8(R15), R9
	SHLQ         $2, R9               // input plane stride in bytes
	LEAQ         (R8)(R9*1), R10      // the next row of the next plane
	MOVQ         40(R15), BX
	VMOVDQU      poolCorners<>(SB), Y14
	MOVL         $16, CX
	VMOVQ        CX, X13
	VPBROADCASTD X13, Y13             // eight windows on

argRows:
	MOVQ         R11, SI
	MOVQ         R12, DI
	MOVQ         R13, AX
	VMOVQ        DX, X15
	VPBROADCASTD X15, Y15
	VPADDD       Y14, Y15, Y15        // the plain corners of the step's windows
	MOVQ         48(R15), CX
	TESTQ        CX, CX
	JZ           argHalf

argVoxels:
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VSHUFPS      $0x88, Y1, Y0, Y2
	VSHUFPS      $0xDD, Y1, Y0, Y4
	VPBROADCASTD 56(R15), Y5
	ARGSTEP(Y4, 60)
	ARGROW((SI)(R8*1), 32(SI)(R8*1), 64, 68)
	ARGROW((SI)(R9*1), 32(SI)(R9*1), 72, 76)
	ARGROW((SI)(R10*1), 32(SI)(R10*1), 80, 84)
	VPERMPD      $0xD8, Y2, Y2
	VMOVUPS      Y2, (DI)
	VPERMQ       $0xD8, Y5, Y5
	VPADDD       Y15, Y5, Y5
	VMOVDQU      Y5, (AX)
	VPADDD       Y13, Y15, Y15
	ADDQ         $64, SI
	ADDQ         $32, DI
	ADDQ         $32, AX
	DECQ         CX
	JNZ          argVoxels

argHalf:
	MOVQ         88(R15), CX
	TESTQ        CX, CX
	JZ           argNext
	VMOVUPS      (SI), X0
	VMOVUPS      16(SI), X1
	VSHUFPS      $0x88, X1, X0, X2
	VSHUFPS      $0xDD, X1, X0, X4
	VPBROADCASTD 56(R15), X5
	ARGSTEP4(X4, 60)
	ARGROW4((SI)(R8*1), 16(SI)(R8*1), 64, 68)
	ARGROW4((SI)(R9*1), 16(SI)(R9*1), 72, 76)
	ARGROW4((SI)(R10*1), 16(SI)(R10*1), 80, 84)
	VMOVUPS      X2, (DI)
	VPADDD       X15, X5, X5
	VMOVDQU      X5, (AX)

argNext:
	LEAQ (R11)(R8*2), R11             // two window rows on
	MOVQ 16(R15), SI
	LEAQ (R12)(SI*4), R12
	MOVQ 24(R15), SI
	LEAQ (R13)(SI*4), R13
	ADDQ 32(R15), DX
	DECQ BX
	JNZ  argRows

	VZEROUPPER
	RET
