// Package gemm implements a cache-blocked, register-tiled float32 matrix
// multiply — the compute core of the convolution engine.
//
// The kernel follows the classic BLIS/GotoBLAS decomposition: the operands
// are repacked into contiguous panels (A into mr-row panels, B into nr-column
// panels) so the innermost microkernel streams through memory linearly, K is
// blocked into kcBlock-deep slices that keep a B panel resident in L2, and
// the microkernel accumulates an mr×nr register tile of C and merges it into
// C itself. On amd64 with AVX2 the microkernel is hand-written assembly
// (kernel_amd64.s) holding the 4×16 tile in eight YMM registers; everywhere
// else it is the portable kernelGo, which is also the oracle the assembly
// is tested against. gemm.go names neither: each build supplies kernel,
// copyRows and transposeRows (kernel_amd64.go, kernel_noasm.go).
//
// Arithmetic: every C element starts from zero per kcBlock slice and, in
// ascending K, takes acc = round(acc + round(a·b)) — a separately rounded
// multiply and add, never a fused multiply-add — and the finished slice sum
// is then stored over or added to C. The assembly uses VMULPS + VADDPS, and
// kernelGo writes the product as float32(a*b), an explicit conversion the Go
// spec forbids fusing across, so the two agree bit for bit on every
// architecture (arm64, ppc64le, s390x and riscv64 would otherwise fuse
// x*y + z) and under any GOAMD64 level. Element-wise SIMD of that recurrence
// does not reorder anything, so the tile shape is invisible in the output.
//
// Parallelism and determinism: work is partitioned over fixed-width column
// blocks of C via internal/parallel, so every C element is owned by exactly
// one worker and is accumulated in a fixed order — K ascending within a
// kcBlock-deep slice, slices in ascending order — that depends only on the
// problem shape, never on the worker budget. Results are therefore
// bit-for-bit identical for any worker count (asserted by
// TestGemmWorkerCountInvariant) and for either microkernel. They differ from
// a naive triple loop only by float reassociation across kcBlock boundaries.
//
// The B-side packer is pluggable: GemmBatch takes a PackBFunc per product
// that writes op(B) panels straight into the packed buffer, so a caller whose
// B is a *virtual* matrix never materializes it. PackDense is the packer of
// a stored matrix; PackGathered packs a matrix whose elements are short runs
// scattered through a buffer at offsets the caller lists — how the
// convolution engine multiplies by a patch matrix that exists only as a
// zero-haloed activation plus an offset table. The microkernel consumes
// identical panels in an identical order whichever packer wrote them, so a
// product is bit-for-bit the same through any of them. GemmBatch runs
// `count` independent same-shape products with the parallel partition over
// (instance × column block) pairs, lifting the parallel degree of
// many-small-GEMM callers (a convolution over a batch of samples) past the
// per-product block count.
//
// The packing panels come from the tensor scratch pool, so steady-state
// callers allocate nothing.
package gemm

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

const (
	// mr × nr is the register tile: four rows of two 8-float YMM vectors,
	// i.e. eight vector accumulators, leaving half the sixteen YMM registers
	// for the B row, the broadcast A element and the products. Each K step
	// is 8 multiplies + 8 adds against 6 loads, which already saturates the
	// two vector ALU ports without FMA; a 6×16 tile would only add rows that
	// the network's M (8, 16, 32, 64 output channels) does not divide into.
	mr = 4
	nr = 16

	// kcBlock is the K-blocking depth. It is a fixed constant — never
	// adapted to the worker count or problem size — because C elements
	// are accumulated one kcBlock-slice at a time, so changing it would
	// change rounding. A B panel of this depth is 24 KiB (L1-resident
	// under the A panels streaming past it), and a full B block
	// (kcBlock × ncBlock) is 384 KiB, L2-resident.
	kcBlock = 384

	// ncBlock is the column-block width, the unit of parallel work.
	// Narrow enough that modest N (e.g. the 216-column backward-weights
	// GEMM of an 8-channel 3×3×3 layer) still splits across workers.
	ncBlock = 256

	// mcBlock is the A-panel row blocking, bounding the packed-A scratch: at
	// 64 rows the A and B panels of a block together are 480 KiB, inside one
	// 512 KiB scratch class.
	mcBlock = 64
)

// PanelCols is the column width of a packed B panel — the nr of the
// register tile — and BlockDepth × BlockCols the largest block (K steps ×
// columns) a PackBFunc is ever asked for in one call.
const (
	PanelCols  = nr
	BlockDepth = kcBlock
	BlockCols  = ncBlock
)

// PackBFunc fills dst with the PanelCols-column panels of the pw×jw block
// of op(B) at row p0, column j0:
//
//	dst[jp·pw·PanelCols + p·PanelCols + jj] = op(B)[p0+p, j0+jp·PanelCols+jj]
//
// zero-padded for jj past jw; p0 is a multiple of BlockDepth and j0 of
// BlockCols. It is the contract PackDense satisfies for a stored matrix; a
// virtual-B caller computes the same elements straight from its source. The
// function may be called concurrently from several workers with disjoint
// (p0, j0) blocks and distinct dst buffers.
type PackBFunc func(p0, pw, j0, jw int, dst []float32)

// PackDense is the PackBFunc of a dense row-major matrix: op(B) = b, or bᵀ
// when trans (the stored b is then n×k), with leading dimension ldb.
func PackDense(trans bool, b []float32, ldb int) PackBFunc {
	return func(p0, pw, j0, jw int, dst []float32) {
		packB(trans, b, ldb, p0, pw, j0, jw, dst)
	}
}

// Gemm computes C = op(A)·op(B), or C += op(A)·op(B) when accumulate is
// true, over dense row-major operands: op(A) is m×k, op(B) is k×n and C is
// m×n with leading dimensions lda, ldb, ldc. transA/transB select op(X) =
// Xᵀ, in which case the stored A is k×m (resp. B is n×k). workers is the
// parallel worker budget (0 = the global default).
func Gemm(transA, transB bool, m, n, k int,
	a []float32, lda int, b []float32, ldb int,
	accumulate bool, c []float32, ldc int, workers int) {

	pack := PackDense(transB, b, ldb)
	GemmBatch(1, transA, m, n, k,
		func(int) []float32 { return a }, lda,
		func(int) PackBFunc { return pack },
		accumulate, nil,
		func(int) []float32 { return c }, ldc, workers)
}

// GemmBatch computes count independent, same-shape products
// C[i] = op(A[i])·op(B[i]) (or += when accumulate is true): the operands of
// instance i are fetched through the a/pack/c accessors, B as a PackBFunc
// that is invoked per (K-slice, column-block) pair to produce the packed
// panels directly, so op(B) never needs to exist in memory. The parallel
// partition is over (instance × column block) pairs, so the parallel degree
// is count × ⌈n/ncBlock⌉ — what lets a convolution over a batch scale with
// the batch size when one sample's column count fits in one or two blocks.
// Each C element is owned by exactly one worker and accumulated in an order
// — K ascending within a kcBlock slice, slices ascending — that depends
// only on the problem shape, so results are bit-for-bit identical to count
// sequential Gemm calls at any budget.
//
// A non-nil bias (m floats, not combined with accumulate) makes row r of
// every C[i] start from bias[r]: C[i] = bias + op(A[i])·op(B[i]), each
// element rounded exactly as if C had been filled with the bias and the
// product accumulated onto it. The worker that owns a column block seeds it
// just before multiplying into it, so the seed costs no pass of its own.
func GemmBatch(count int, transA bool, m, n, k int,
	a func(int) []float32, lda int, pack func(int) PackBFunc,
	accumulate bool, bias []float32, c func(int) []float32, ldc int, workers int) {

	if count <= 0 || m <= 0 || n <= 0 {
		return
	}
	if bias != nil && accumulate {
		panic("gemm: bias and accumulate are exclusive")
	}
	if k <= 0 {
		if !accumulate {
			for i := 0; i < count; i++ {
				seedRows(c(i), ldc, 0, n, m, bias)
			}
		}
		return
	}

	nBlocks := (n + ncBlock - 1) / ncBlock
	parallel.ForWorkers(workers, count*nBlocks, 1, func(lo, hi int) {
		// One buffer for both operands' panels: a block costs the pool one
		// round trip.
		panels := tensor.GetScratch(kcBlock * (ncBlock + mcBlock))
		defer tensor.PutScratch(panels)
		packedB, packedA := panels[:kcBlock*ncBlock], panels[kcBlock*ncBlock:]
		for item := lo; item < hi; item++ {
			i, jb := item/nBlocks, item%nBlocks
			ai, packi, ci := a(i), pack(i), c(i)
			j0 := jb * ncBlock
			jw := min(ncBlock, n-j0)
			if bias != nil {
				seedRows(ci, ldc, j0, jw, m, bias)
			}
			for p0 := 0; p0 < k; p0 += kcBlock {
				pw := min(kcBlock, k-p0)
				packi(p0, pw, j0, jw, packedB)
				overwrite := p0 == 0 && !accumulate && bias == nil
				for i0 := 0; i0 < m; i0 += mcBlock {
					iw := min(mcBlock, m-i0)
					packA(transA, ai, lda, i0, iw, p0, pw, packedA)
					macroKernel(iw, jw, pw, packedA, packedB,
						ci, i0*ldc+j0, ldc, overwrite)
				}
			}
		}
	})
}

// seedRows sets columns [j0, j0+jw) of the first m rows of c to the row's
// bias, or to zero when bias is nil.
func seedRows(c []float32, ldc, j0, jw, m int, bias []float32) {
	for r := 0; r < m; r++ {
		row := c[r*ldc+j0:][:jw]
		if bias == nil {
			clear(row)
			continue
		}
		v := bias[r]
		for j := range row {
			row[j] = v
		}
	}
}

// PackGathered packs a block of a virtual matrix whose elements are short
// contiguous runs scattered through src:
//
//	V[r, run·v + e] = src[rows[r] + starts[v] + e],  e < run
//
// — len(rows) rows by run·len(starts) columns — into dst in a PackBFunc's
// layout: the block is V itself (K = len(rows)), or Vᵀ when trans (K =
// run·len(starts)). run is 4, where whole panels move as vector loads on
// amd64 (kernel_amd64.s), or 1, the plain per-element gather. A
// convolution's patch matrix has this form over a zero-haloed activation: a
// row is a (channel, kernel tap) offset, a column start an output voxel's.
func PackGathered(trans bool, dst, src []float32, rows, starts []int, run int) {
	if run != 1 && run != 4 {
		panic("gemm: PackGathered run must be 1 or 4")
	}
	if len(rows) == 0 || len(starts) == 0 {
		return
	}
	// Every read below is src[rows[r]+starts[v]+e]: checking the two
	// extremes here is the bounds check of the assembly, which does none.
	lo, hi := extremes(rows)
	slo, shi := extremes(starts)
	if lo+slo < 0 {
		panic("gemm: PackGathered offset is negative")
	}
	src = src[:hi+shi+run]

	// At run 4 a panel goes through gatherCols/gatherRows whole; a ragged
	// last panel repeats its first live index in the dead lanes, which are
	// zeroed afterwards.
	if trans {
		pw := run * len(starts)
		for jp := 0; jp*nr < len(rows); jp++ {
			out := dst[jp*pw*nr : (jp+1)*pw*nr]
			var lanes [nr]int
			live := copy(lanes[:], rows[jp*nr:])
			if run == 1 {
				clear(out)
				for jj, rb := range lanes[:live] {
					for p, sb := range starts {
						out[p*nr+jj] = src[rb+sb]
					}
				}
				continue
			}
			for jj := live; jj < nr; jj++ {
				lanes[jj] = lanes[0]
			}
			gatherCols(out, src, &lanes, starts)
			if live < nr {
				for p := 0; p < pw; p++ {
					clear(out[p*nr+live : (p+1)*nr])
				}
			}
		}
		return
	}
	pw, per := len(rows), nr/run
	for jp := 0; jp*per < len(starts); jp++ {
		out := dst[jp*pw*nr : (jp+1)*pw*nr]
		var lanes [nr]int
		live := copy(lanes[:per], starts[jp*per:])
		if run == 1 {
			clear(out)
			for jj, sb := range lanes[:live] {
				for p, rb := range rows {
					out[p*nr+jj] = src[rb+sb]
				}
			}
			continue
		}
		for q := live; q < 4; q++ {
			lanes[q] = lanes[0]
		}
		gatherRows(out, src, rows, (*[4]int)(lanes[:]))
		if live < 4 {
			for p := 0; p < pw; p++ {
				clear(out[p*nr+4*live : (p+1)*nr])
			}
		}
	}
}

// extremes returns the smallest and largest element of a non-empty list.
func extremes(xs []int) (lo, hi int) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// gatherRowsGo is one full panel of PackGathered at run 4, K along rows:
// dst[p·nr + 4q + e] = src[rows[p] + quads[q] + e]. It is the portable
// gatherRows and the reference for the assembly one.
func gatherRowsGo(dst, src []float32, rows []int, quads *[4]int) {
	for p, rb := range rows {
		out := (*[nr]float32)(dst[p*nr:])
		for q, qb := range quads {
			*(*[4]float32)(out[4*q:]) = *(*[4]float32)(src[rb+qb:])
		}
	}
}

// gatherColsGo is one full panel of PackGathered at run 4, K along the
// quads: dst[(4v+e)·nr + jj] = src[rows[jj] + quads[v] + e]. It is the
// portable gatherCols and the reference for the assembly one.
func gatherColsGo(dst, src []float32, rows *[nr]int, quads []int) {
	for v, qb := range quads {
		out := dst[4*v*nr:][:4*nr]
		for jj, rb := range rows {
			x := (*[4]float32)(src[rb+qb:])
			out[jj], out[nr+jj], out[2*nr+jj], out[3*nr+jj] = x[0], x[1], x[2], x[3]
		}
	}
}

// packA copies the iw×pw block of op(A) at (i0, p0) into mr-row panels:
// panel ip holds rows [ip·mr, ip·mr+mr) interleaved by K, i.e.
// dst[ip·pw·mr + p·mr + ii] = op(A)[i0+ip·mr+ii, p0+p], zero-padded past iw.
func packA(trans bool, a []float32, lda, i0, iw, p0, pw int, dst []float32) {
	// op(A)[i, p] = a[i·si + p·sp]
	si, sp := lda, 1
	if trans {
		si, sp = 1, lda
	}
	for ip := 0; ip*mr < iw; ip++ {
		out := dst[ip*pw*mr : (ip+1)*pw*mr]
		base := (i0+ip*mr)*si + p0*sp
		rows := min(mr, iw-ip*mr)
		switch {
		case rows < mr:
			packRagged(out, mr, a[base:], sp, si, pw, rows)
		case trans:
			// Each K step is mr contiguous floats of a.
			for p := 0; p < pw; p++ {
				*(*[mr]float32)(out[p*mr:]) = *(*[mr]float32)(a[base+p*lda:])
			}
		default:
			r0 := a[base:][:pw]
			r1 := a[base+lda:][:pw]
			r2 := a[base+2*lda:][:pw]
			r3 := a[base+3*lda:][:pw]
			for p := range r0 {
				*(*[mr]float32)(out[p*mr:]) = [mr]float32{r0[p], r1[p], r2[p], r3[p]}
			}
		}
	}
}

// packB copies the pw×jw block of op(B) at (p0, j0) into nr-column panels:
// dst[jp·pw·nr + p·nr + jj] = op(B)[p0+p, j0+jp·nr+jj], zero-padded past jw.
// Full panels go through copyRows/transposeRows, which move as many leading K
// steps as the architecture has vector code for (none, in the portable
// build) and report the count; the loops here move the rest.
func packB(trans bool, b []float32, ldb, p0, pw, j0, jw int, dst []float32) {
	// op(B)[p, j] = b[p·sp + j·sj]
	sp, sj := ldb, 1
	if trans {
		sp, sj = 1, ldb
	}
	for jp := 0; jp*nr < jw; jp++ {
		out := dst[jp*pw*nr : (jp+1)*pw*nr]
		base := p0*sp + (j0+jp*nr)*sj
		cols := min(nr, jw-jp*nr)
		switch {
		case cols < nr:
			packRagged(out, nr, b[base:], sp, sj, pw, cols)
		case trans:
			// Each of the nr source rows runs contiguously along K.
			done := transposeRows(out, b[base:], ldb, pw)
			for jj := 0; jj < nr; jj++ {
				for p, v := range b[base+jj*ldb+done:][:pw-done] {
					out[(done+p)*nr+jj] = v
				}
			}
		default:
			// Each K step is nr contiguous floats of b.
			for p := copyRows(out, b[base:], ldb, pw); p < pw; p++ {
				*(*[nr]float32)(out[p*nr:]) = *(*[nr]float32)(b[base+p*ldb:])
			}
		}
	}
}

// packRagged fills the last, partial panel of a block element by element:
// out[p·width + e] = src[p·sp + e·se] for e < n, zero for n <= e < width.
func packRagged(out []float32, width int, src []float32, sp, se, pw, n int) {
	clear(out)
	for e := 0; e < n; e++ {
		for p := 0; p < pw; p++ {
			out[p*width+e] = src[p*sp+e*se]
		}
	}
}

// macroKernel multiplies the packed iw×pw A block by the packed pw×jw B
// block into C at offset cOff. When overwrite is true the product replaces C
// (the first K slice of a non-accumulating Gemm); otherwise it adds. Full
// mr×nr tiles are merged into C by the microkernel; a ragged edge tile is
// computed into a stack buffer and only its live rows and columns merged.
// A B panel stays in L1 while the A panels stream past it.
func macroKernel(iw, jw, pw int, packedA, packedB, c []float32, cOff, ldc int, overwrite bool) {
	var tile [mr * nr]float32
	for jp := 0; jp*nr < jw; jp++ {
		bp := packedB[jp*pw*nr : (jp+1)*pw*nr]
		cols := min(nr, jw-jp*nr)
		for ip := 0; ip*mr < iw; ip++ {
			ap := packedA[ip*pw*mr : (ip+1)*pw*mr]
			rows := min(mr, iw-ip*mr)
			base := cOff + ip*mr*ldc + jp*nr
			if rows == mr && cols == nr {
				kernel(pw, ap, bp, c[base:base+(mr-1)*ldc+nr], ldc, overwrite)
				continue
			}
			kernel(pw, ap, bp, tile[:], nr, true)
			for ii := 0; ii < rows; ii++ {
				crow := c[base+ii*ldc:][:cols]
				trow := tile[ii*nr:][:cols]
				if overwrite {
					copy(crow, trow)
					continue
				}
				for jj, v := range trow {
					crow[jj] += v
				}
			}
		}
	}
}

// kernelGo is the portable microkernel and the reference for the assembly
// one: it computes the mr×nr tile product of a packed A panel and a packed B
// panel over pw K steps and stores it over (overwrite) or adds it to the
// mr×nr block at the head of c, rows ldc apart, touching nothing else of c.
// The tile is worked as nr/4 strips of 4×4 so that a strip's sixteen
// accumulators are locals the compiler keeps in registers (an array would
// live in memory, and updating them four to a tuple assignment spills and
// costs a quarter of the speed). float32(·) rounds the product before the add: without the
// conversion the compiler may fuse the two into one FMA rounding.
func kernelGo(pw int, a, b, c []float32, ldc int, overwrite bool) {
	a, b = a[:pw*mr], b[:pw*nr]
	for j := 0; j < nr; j += 4 {
		var c00, c01, c02, c03, c10, c11, c12, c13 float32
		var c20, c21, c22, c23, c30, c31, c32, c33 float32
		for p := 0; p < pw; p++ {
			ap, bp := (*[mr]float32)(a[p*mr:]), (*[4]float32)(b[p*nr+j:])
			a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
			b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c02 += float32(a0 * b2)
			c03 += float32(a0 * b3)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c12 += float32(a1 * b2)
			c13 += float32(a1 * b3)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c22 += float32(a2 * b2)
			c23 += float32(a2 * b3)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
			c32 += float32(a3 * b2)
			c33 += float32(a3 * b3)
		}
		for i, row := range [mr][4]float32{
			{c00, c01, c02, c03}, {c10, c11, c12, c13}, {c20, c21, c22, c23}, {c30, c31, c32, c33},
		} {
			crow := (*[4]float32)(c[i*ldc+j:])
			if !overwrite {
				for jj := range row {
					row[jj] += crow[jj]
				}
			}
			*crow = row
		}
	}
}
