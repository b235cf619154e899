//go:build amd64

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One K step of row i of the tile: broadcast a[i], multiply it into the two
// halves of the B row held in Y8/Y9, then add the rounded products to the
// row's accumulators. VMULPS and VADDPS stay separate instructions — a fused
// multiply-add would skip the product rounding the portable kernel performs.
#define ROW(off, lo, hi) \
	VBROADCASTSS off(SI), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y11, lo, lo;  \
	VADDPS       Y12, hi, hi

// Adds row i's bias, broadcast from off(BX), to the row's accumulators:
// acc + bias, the accumulator first, where the add of a bias-filled C had it.
#define BIASROW(off, lo, hi) \
	VBROADCASTSS off(BX), Y8; \
	VADDPS       Y8, lo, lo;  \
	VADDPS       Y8, hi, hi

// Normalizes and rectifies four floats: the xmm half x of a row register is
// widened to float64 in Y8, x̂ = (v − mean)·rstd (Y12, Y13) rounded back to
// float32 in X8.
#define NORM4(x) \
	VCVTPS2PD  x, Y8;    \
	VSUBPD     Y12, Y8, Y8; \
	VMULPD     Y13, Y8, Y8; \
	VCVTPD2PSY Y8, X8

// One 8-float half v (xmm half vx) of row i: x̂ of both quarters, then
// relu(γ·x̂ + β) with γ, β in Y14, Y11 — product and sum rounded separately,
// never fused — and VMAXPS taking +0 (Y15) as its second source, which it
// returns for NaN, −0 and every v ≤ 0.
#define NORMHALF(v, vx) \
	VEXTRACTF128 $1, v, X9;      \
	NORM4(vx);                   \
	VMOVAPS      X8, X10;        \
	NORM4(X9);                   \
	VINSERTF128  $1, X8, Y10, Y8; \
	VMULPS       Y8, Y14, Y8;    \
	VADDPS       Y11, Y8, Y8;    \
	VMAXPS       Y15, Y8, v

// Row i of the normalizing store: its statistics broadcast from the mean
// and rstd tables (SI, DI) at o8 = 8i, and gamma and beta (BX, CX) at o4 = 4i.
#define NORMROW(o8, o4, lo, lox, hi, hix) \
	VBROADCASTSD o8(SI), Y12; \
	VBROADCASTSD o8(DI), Y13; \
	VBROADCASTSS o4(BX), Y14; \
	VBROADCASTSS o4(CX), Y11; \
	NORMHALF(lo, lox);           \
	NORMHALF(hi, hix)

// Stores one 8-column half of a row pair, lo (the first row) and hi (the
// second), interleaved — lo[0], hi[0], lo[1], hi[1], … — as two 8-float runs:
// columns 0-3 at base + 4·q0 and columns 4-7 at base + 4·q1 bytes. VUNPCK
// interleaves within each 128-bit lane, so the lanes' low halves make the
// first run and their high halves the second.
#define PAIR(lo, hi, base, q0, q1) \
	VUNPCKLPS  hi, lo, Y8;          \
	VUNPCKHPS  hi, lo, Y9;          \
	VPERM2F128 $0x20, Y9, Y8, Y10;  \
	VPERM2F128 $0x31, Y9, Y8, Y11;  \
	VMOVUPS    Y10, (base)(q0*4);   \
	VMOVUPS    Y11, (base)(q1*4)

// Row i of a step-1 scattered tile, whose offset is at off(BX): its four
// 4-float runs at c (DX) + rows[i] + starts[q] (R10..R13), in floats. RUNS
// adds them onto the row's accumulators lo and hi, the accumulator first as
// in the dense add; STORERUNS writes lo and hi (xmm halves lox, hix) there.
#define RUNS(off, lo, hi) \
	MOVQ        off(BX), R8;             \
	LEAQ        (DX)(R8*4), R8;          \
	VMOVUPS     (R8)(R10*4), X8;         \
	VINSERTF128 $1, (R8)(R11*4), Y8, Y8; \
	VMOVUPS     (R8)(R12*4), X9;         \
	VINSERTF128 $1, (R8)(R13*4), Y9, Y9; \
	VADDPS      Y8, lo, lo;              \
	VADDPS      Y9, hi, hi

#define STORERUNS(off, lo, lox, hi, hix) \
	MOVQ         off(BX), R8;        \
	LEAQ         (DX)(R8*4), R8;     \
	VMOVUPS      lox, (R8)(R10*4);   \
	VEXTRACTF128 $1, lo, (R8)(R11*4); \
	VMOVUPS      hix, (R8)(R12*4);   \
	VEXTRACTF128 $1, hi, (R8)(R13*4)

// func tilesAVX2(t *tileRun)
//
// Runs the rowPanels × colPanels full tiles of t, column panel jp outer and
// row panel ip inner, so a B panel stays in L1 while the A panels stream
// past it. The record's fields are at a 0, b 24, rows 48 (len 56), quads 72,
// c 96, ldc 120, cstarts 128, st 152, rowPanels 176, colPanels 184; the
// loop keeps jp at 0(SP) and ip at 8(SP), since a tile uses every other
// register. A scattered tile's four column starts are in R10..R13 from the
// merge on.
//
// Each tile lives in Y0..Y7, row i in Y(2i) (columns 0-7) and Y(2i+1)
// (columns 8-15). A panel ip is 4 floats per K step from a + ip·pw·mr. K
// step p of B panel jp is four 4-float runs, run q at b + 4·(rows[p] +
// quad q), the quads at quads[4·jp:] or, packed, jp·pw·nr + 4q; R8..R11
// hold &b[quad q], so a step costs one load of rows[p] besides the runs.
// Where the runs pair up — quad 1 = quad 0 + 4 and quad 3 = quad 2 + 4, as
// in a packed panel or a volume row a multiple of 8 wide — each 8-column
// half is one 32-byte load; otherwise it is two 16-byte ones. The store
// follows st[ip] (a tileStore: add at 0, bias 8, gamma 16, beta 24, mean
// 32, rstd 40, rows 48; step, a byte, at 1). A dense tile is stored at
// c + ip·mr·ldc + jp·nr, rows ldc apart. A scattered one (cstarts set) is
// stored through st[ip]'s rows and the starts at cstarts[4·jp:], c being
// the whole destination: at step 1 it adds onto, or writes, each row's runs
// at c + rows[i] plus each start; at step 2 (never an add) it writes rows 0
// and 1, and rows 2 and 3, interleaved at c + rows[0] and c + rows[2] plus
// each start. A scattered run skips a row panel whose store has no rows.
TEXT ·tilesAVX2(SB), NOSPLIT, $16-8
	MOVQ t+0(FP), DI
	CMPQ 176(DI), $0
	JEQ  done
	CMPQ 184(DI), $0
	JEQ  done
	MOVQ $0, 0(SP)

col:
	MOVQ $0, 8(SP)

tile:
	MOVQ  t+0(FP), DI
	MOVQ  8(SP), SI             // ip
	CMPQ  128(DI), $0           // cstarts: a scattered run?
	JEQ   live
	MOVQ  SI, AX
	SHLQ  $6, AX                // 64-byte tileStores
	ADDQ  152(DI), AX
	CMPQ  48(AX), $0            // no rows: the Go store's tile
	JEQ   next

live:
	MOVQ  56(DI), CX            // pw
	IMULQ CX, SI
	SHLQ  $4, SI                // ip·pw·mr floats
	ADDQ  0(DI), SI             // A panel ip
	MOVQ  48(DI), BX            // rows
	MOVQ  0(SP), R8             // jp
	MOVQ  72(DI), AX            // quads
	TESTQ AX, AX
	JZ    packed
	SHLQ  $5, R8                // four quads a panel
	ADDQ  R8, AX
	MOVQ  0(AX), R8
	MOVQ  8(AX), R9
	MOVQ  16(AX), R10
	MOVQ  24(AX), R11
	JMP   quads

packed:
	IMULQ CX, R8
	SHLQ  $4, R8                // jp·pw·nr
	LEAQ  4(R8), R9
	LEAQ  8(R8), R10
	LEAQ  12(R8), R11

quads:
	MOVQ   24(DI), DI           // b
	LEAQ   (DI)(R8*4), R8
	LEAQ   (DI)(R9*4), R9
	LEAQ   (DI)(R10*4), R10
	LEAQ   (DI)(R11*4), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     merge
	LEAQ   16(R8), AX
	CMPQ   AX, R9
	JNE    split
	LEAQ   16(R10), AX
	CMPQ   AX, R11
	JNE    split

paired:
	MOVQ    (BX), AX
	VMOVUPS (R8)(AX*4), Y8
	VMOVUPS (R10)(AX*4), Y9
	ROW(0, Y0, Y1)
	ROW(4, Y2, Y3)
	ROW(8, Y4, Y5)
	ROW(12, Y6, Y7)
	ADDQ    $16, SI
	ADDQ    $8, BX
	DECQ    CX
	JNZ     paired
	JMP     merge

split:
	MOVQ        (BX), AX
	VMOVUPS     (R8)(AX*4), X8
	VINSERTF128 $1, (R9)(AX*4), Y8, Y8
	VMOVUPS     (R10)(AX*4), X9
	VINSERTF128 $1, (R11)(AX*4), Y9, Y9
	ROW(0, Y0, Y1)
	ROW(4, Y2, Y3)
	ROW(8, Y4, Y5)
	ROW(12, Y6, Y7)
	ADDQ        $16, SI
	ADDQ        $8, BX
	DECQ        CX
	JNZ         split

merge:
	MOVQ  t+0(FP), DI
	MOVQ  8(SP), AX             // ip
	SHLQ  $6, AX
	ADDQ  152(DI), AX           // st[ip]
	MOVQ  96(DI), DX            // c
	MOVQ  128(DI), CX           // cstarts
	TESTQ CX, CX
	JZ    dense
	MOVQ  0(SP), R9
	SHLQ  $5, R9
	ADDQ  R9, CX
	MOVQ  0(CX), R10            // the tile's column starts
	MOVQ  8(CX), R11
	MOVQ  16(CX), R12
	MOVQ  24(CX), R13
	JMP   stores

dense:
	MOVQ  8(SP), R9
	MOVQ  120(DI), R8           // ldc
	IMULQ R8, R9
	SHLQ  $4, R9                // ip·mr·ldc floats
	ADDQ  R9, DX
	MOVQ  0(SP), R9
	SHLQ  $6, R9                // jp·nr floats
	ADDQ  R9, DX
	SHLQ  $2, R8                // C row stride in bytes
	LEAQ  (DX)(R8*1), R9        // row 1
	LEAQ  (DX)(R8*2), R10       // row 2
	LEAQ  (R9)(R8*2), R11       // row 3

stores:
	MOVBLZX 0(AX), BX
	TESTB   BL, BL
	JNZ     add
	MOVQ    8(AX), BX           // bias
	TESTQ   BX, BX
	JZ      norm
	BIASROW(0, Y0, Y1)
	BIASROW(4, Y2, Y3)
	BIASROW(8, Y4, Y5)
	BIASROW(12, Y6, Y7)
	JMP     norm

add:
	MOVQ   48(AX), BX           // scattered rows
	TESTQ  BX, BX
	JNZ    addruns
	VADDPS (DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	VADDPS (R9), Y2, Y2
	VADDPS 32(R9), Y3, Y3
	VADDPS (R10), Y4, Y4
	VADDPS 32(R10), Y5, Y5
	VADDPS (R11), Y6, Y6
	VADDPS 32(R11), Y7, Y7
	JMP    norm

addruns:
	RUNS(0, Y0, Y1)
	RUNS(8, Y2, Y3)
	RUNS(16, Y4, Y5)
	RUNS(24, Y6, Y7)

norm:
	MOVQ   16(AX), BX           // gamma
	TESTQ  BX, BX
	JZ     store
	MOVQ   24(AX), CX           // beta
	MOVQ   32(AX), SI           // mean
	MOVQ   40(AX), DI           // rstd
	VXORPS Y15, Y15, Y15
	NORMROW(0, 0, Y0, X0, Y1, X1)
	NORMROW(8, 4, Y2, X2, Y3, X3)
	NORMROW(16, 8, Y4, X4, Y5, X5)
	NORMROW(24, 12, Y6, X6, Y7, X7)

store:
	MOVQ    48(AX), BX          // scattered rows
	TESTQ   BX, BX
	JNZ     scatter
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	JMP     next

scatter:
	CMPB 1(AX), $1              // step
	JNE  pairs
	STORERUNS(0, Y0, X0, Y1, X1)
	STORERUNS(8, Y2, X2, Y3, X3)
	STORERUNS(16, Y4, X4, Y5, X5)
	STORERUNS(24, Y6, X6, Y7, X7)
	JMP  next

pairs:
	MOVQ 0(BX), R8
	MOVQ 16(BX), R9
	LEAQ (DX)(R8*4), R8         // rows 0 and 1
	LEAQ (DX)(R9*4), R9         // rows 2 and 3
	PAIR(Y0, Y2, R8, R10, R11)
	PAIR(Y1, Y3, R8, R12, R13)
	PAIR(Y4, Y6, R9, R10, R11)
	PAIR(Y5, Y7, R9, R12, R13)

next:
	MOVQ t+0(FP), DI
	MOVQ 8(SP), AX
	INCQ AX
	MOVQ AX, 8(SP)
	CMPQ AX, 176(DI)
	JLT  tile
	MOVQ 0(SP), AX
	INCQ AX
	MOVQ AX, 0(SP)
	CMPQ AX, 184(DI)
	JLT  col

done:
	VZEROUPPER
	RET

// Transposes the 8×8 float block whose rows start at r0 and r4 = r0 + 4·ldb
// bytes-stride R8 (R12 = 3·R8) into eight 8-float rows of the packed panel
// at off(DI), 64 bytes (one nr-float panel row) apart. Each YMM register is
// loaded as [row i | row i+4], so the 4×4 transposes VUNPCK/VSHUFPS perform
// inside each 128-bit lane leave whole output rows behind.
#define TRANSPOSE8(r0, r4, off) \
	VMOVUPS     (r0), X0;                  \
	VMOVUPS     (r0)(R8*1), X1;            \
	VMOVUPS     (r0)(R8*2), X2;            \
	VMOVUPS     (r0)(R12*1), X3;           \
	VMOVUPS     16(r0), X4;                \
	VMOVUPS     16(r0)(R8*1), X5;          \
	VMOVUPS     16(r0)(R8*2), X6;          \
	VMOVUPS     16(r0)(R12*1), X7;         \
	VINSERTF128 $1, (r4), Y0, Y0;          \
	VINSERTF128 $1, (r4)(R8*1), Y1, Y1;    \
	VINSERTF128 $1, (r4)(R8*2), Y2, Y2;    \
	VINSERTF128 $1, (r4)(R12*1), Y3, Y3;   \
	VINSERTF128 $1, 16(r4), Y4, Y4;        \
	VINSERTF128 $1, 16(r4)(R8*1), Y5, Y5;  \
	VINSERTF128 $1, 16(r4)(R8*2), Y6, Y6;  \
	VINSERTF128 $1, 16(r4)(R12*1), Y7, Y7; \
	VUNPCKLPS   Y1, Y0, Y8;                \
	VUNPCKHPS   Y1, Y0, Y9;                \
	VUNPCKLPS   Y3, Y2, Y10;               \
	VUNPCKHPS   Y3, Y2, Y11;               \
	VUNPCKLPS   Y5, Y4, Y12;               \
	VUNPCKHPS   Y5, Y4, Y13;               \
	VUNPCKLPS   Y7, Y6, Y14;               \
	VUNPCKHPS   Y7, Y6, Y15;               \
	VSHUFPS     $0x44, Y10, Y8, Y0;        \
	VSHUFPS     $0xEE, Y10, Y8, Y1;        \
	VSHUFPS     $0x44, Y11, Y9, Y2;        \
	VSHUFPS     $0xEE, Y11, Y9, Y3;        \
	VSHUFPS     $0x44, Y14, Y12, Y4;       \
	VSHUFPS     $0xEE, Y14, Y12, Y5;       \
	VSHUFPS     $0x44, Y15, Y13, Y6;       \
	VSHUFPS     $0xEE, Y15, Y13, Y7;       \
	VMOVUPS     Y0, off+0(DI);             \
	VMOVUPS     Y1, off+64(DI);            \
	VMOVUPS     Y2, off+128(DI);           \
	VMOVUPS     Y3, off+192(DI);           \
	VMOVUPS     Y4, off+256(DI);           \
	VMOVUPS     Y5, off+320(DI);           \
	VMOVUPS     Y6, off+384(DI);           \
	VMOVUPS     Y7, off+448(DI)

// func transposeAVX2(dst, src []float32, ldb, blocks int)
//
// dst[p·16 + j] = src[j·ldb + p] for j < 16, p < 8·blocks: one packed B
// panel of a transposed operand, eight K steps per iteration.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-64
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  ldb+48(FP), R8
	MOVQ  blocks+56(FP), CX
	SHLQ  $2, R8                // source row stride in bytes
	LEAQ  (R8)(R8*2), R12       // 3 rows
	LEAQ  (SI)(R8*4), R9        // row 4
	LEAQ  (R9)(R8*4), R10       // row 8
	LEAQ  (R10)(R8*4), R11      // row 12
	TESTQ CX, CX
	JZ    done

block:
	TRANSPOSE8(SI, R9, 0)
	TRANSPOSE8(R10, R11, 32)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $512, DI
	DECQ CX
	JNZ  block

done:
	VZEROUPPER
	RET

// func copyPanelAVX2(dst, src []float32, ldb, pw int)
//
// dst[p·16 + j] = src[p·ldb + j] for j < 16, p < pw: one packed B panel of
// a row-major operand, one 16-float row per K step.
TEXT ·copyPanelAVX2(SB), NOSPLIT, $0-64
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  ldb+48(FP), R8
	MOVQ  pw+56(FP), CX
	SHLQ  $2, R8
	TESTQ CX, CX
	JZ    copied

row:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     row

copied:
	VZEROUPPER
	RET
