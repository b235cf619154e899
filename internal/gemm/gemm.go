// Package gemm implements a cache-blocked, register-tiled float32 matrix
// multiply — the compute core of the convolution engine.
//
// The kernel follows the classic BLIS/GotoBLAS decomposition: K is blocked
// into kcBlock-deep slices, op(A) is packed into mr-row panels, and the
// microkernel accumulates an mr×nr register tile of C and merges it into C
// itself. The microkernel reads its B panel through an offset table — K step
// p, columns 4q..4q+3 are b[rows[p] + quads[q] :][:4] — so one kernel streams
// both a B block packed into nr-column panels (rows[p] = p·nr, quads 0, 4, 8,
// 12) and a matrix read in place where it lies. macroKernel hands the
// microkernel every full tile of a block at once, as one tileRun record: on
// amd64 with AVX2 one call of hand-written assembly (kernel_amd64.s) walks
// the block's tiles, each held in eight YMM registers, so a block costs one
// Go call rather than one per 4×16 tile; everywhere else tilesGo walks the
// same record through the portable kernelGo, which is also the oracle the
// assembly is tested against. Ragged tiles go through the same record, one
// tile at a time. gemm.go names neither kernel: each build supplies
// runTiles, copyRows and transposeRows (kernel_amd64.go, kernel_noasm.go).
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
// Nor is a K step whose B element is ±0 for every column of a tile, when
// its A element is finite: each slice's accumulator starts at +0, which in
// round-to-nearest never becomes −0, so adding a·(±0) = ±0 leaves it as it
// was. The microkernel therefore skips such steps where the operand says
// they are zero (Classes, below), and the store — bias + acc, C + acc, the
// normalization after — sees the same acc, +0 for a slice it skipped whole.
// What changes is a NaN or an infinite A element facing a skipped zero: the
// full product would have made that element NaN (∞·0), the skip leaves it
// out.
//
// Epilogue: the store that writes a finished slice sum can also finish the
// element, while it is still in a register, so a layer that follows its
// product with per-row arithmetic makes no pass of its own. The first
// slice's store writes acc + bias[r] — the bits of a C pre-filled with the
// bias and the product accumulated onto it, C's operand position included —
// and the last slice's store can then apply a batch normalization under
// fixed statistics and a ReLU: relu(float32(γ·x̂) + β) with x̂ =
// float32((float64(v) − mean)·rstd), each operation rounded where written
// (VCVTPS2PD, VSUBPD, VMULPD, VCVTPD2PS, VMULPS, VADDPS; kernelGo and the
// ragged-tile merge in Go), and relu mapping NaN and −0 to +0 (VMAXPS with
// +0 as its second source). These are the bits of nn's standalone BatchNorm
// and ReLU layers.
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
// Operands: GemmBatch runs `count` independent same-shape products, with the
// parallel partition over (instance × column block) pairs, lifting the
// parallel degree of many-small-GEMM callers (a convolution over a batch of
// samples) past the per-product block count. A is packed once per call —
// once in all when every instance shares it, as a convolution's weights are
// — not once per work item. B is an Operand: a stored matrix (Dense) is
// packed per (K slice, column block) into nr-column panels; a Gathered
// matrix, whose elements are short runs scattered through a buffer at
// offsets listed once, is how the convolution engine multiplies by a patch
// matrix that exists only as a zero-haloed activation plus an offset table.
// A gathered matrix of 4-float runs is read in place, with no copy; the
// 1-float form is packed. The microkernel sees the same floats in the same
// order whichever way B reaches it, so a product is bit-for-bit the same
// through any of them. A gathered matrix read in place can also sort its
// column panels into classes (Gathered.Classed), each of which leaves out
// the K steps its panels read only zeros at — a convolution's taps into the
// zero border, for the panels on a volume's faces. A shared A is then
// packed whole as before, and each class's kept steps copied out of it, K
// slice by K slice at the same kcBlock boundaries, in the same fork;
// macroKernel hands each run of same-class panels of a block to the
// microkernel with that class's A panels and K-step offsets.
//
// C is a Target: a stored row-major matrix (Into), or a Scattered one, whose
// elements go in short strided runs to offsets listed once — how a stride-2
// transposed convolution's product lands on its output voxels with no column
// buffer and no scatter pass, and a convolution's lands inside the zero
// border of the buffer its consumer reads in place. The assembly stores the
// full tiles of runs of 4 at step 1 (any rows, a later K slice's add
// included) run by run, and those at step 2 whose row pairs interleave
// (adjacent rows, first slice) as contiguous runs; any other scattered tile
// goes through the Go store that merges ragged tiles. Either way each
// element is stored once, with the same epilogue, so the bits are those of
// the dense product scattered afterwards.
//
// The packed A and the packing panels come from a tensor.Workspace the
// caller passes in with the call, so a caller that owns one allocates
// nothing in steady state.
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

	// mcBlock is the row blocking of the macrokernel: the A panels of 64 rows
	// of one K slice (96 KiB at full depth) stream past each B panel from L2.
	// It bounds no buffer — A is packed whole, once per call.
	mcBlock = 64

	// packGrain bounds the floats of a shared A one packing chunk writes:
	// five full-depth row panels, 30 KiB.
	packGrain = 8192
)

// panelRows is the row-offset table of a packed B panel: K step p starts
// p·nr floats in.
var panelRows = func() (r [kcBlock]int) {
	for p := range r {
		r[p] = p * nr
	}
	return r
}()

// Gemm computes C = op(A)·op(B), or C += op(A)·op(B) when accumulate is
// true, over dense row-major operands: op(A) is m×k, op(B) is k×n and C is
// m×n with leading dimensions lda, ldb, ldc. transA/transB select op(X) =
// Xᵀ, in which case the stored A is k×m (resp. B is n×k). workers is the
// parallel worker budget (0 = the global default). The packing buffers come
// from a workspace of the call's own.
func Gemm(transA, transB bool, m, n, k int,
	a []float32, lda int, b []float32, ldb int,
	accumulate bool, c []float32, ldc int, workers int) {

	var ws tensor.Workspace
	GemmBatch(&ws, 1, transA, m, n, k, a, lda, 0, Dense(transB, b, ldb, 0),
		accumulate, Epilogue{}, Into(c, ldc, 0), workers)
}

// Epilogue is what GemmBatch's store does to each element of a
// non-accumulating product on its way to C. The zero value stores the
// product as it is.
type Epilogue struct {
	// Bias, when non-nil, holds one float per row: C = bias + op(A)·op(B),
	// each element rounded exactly as if C had been filled with the bias and
	// the product accumulated onto it.
	Bias []float32
	// Norm, when set, then normalizes and rectifies every row.
	Norm Norm
}

// Norm is a per-row batch normalization under fixed statistics followed by a
// ReLU: v ↦ relu(float32(Gamma[r]·x̂) + Beta[r]) with x̂ =
// float32((float64(v) − Mean[r])·Rstd[r]), relu mapping NaN and −0 to +0.
// Each slice holds one value per row of C; the zero value (Mean nil) is no
// normalization.
type Norm struct {
	Mean, Rstd  []float64
	Gamma, Beta []float32
}

// apply is the normalization of one element of row r.
func (n *Norm) apply(v float32, r int) float32 {
	return normReLU(v, n.Mean[r], n.Rstd[r], n.Gamma[r], n.Beta[r])
}

// normReLU is the normalizing epilogue of one element, each operation
// rounded where the package doc says, and the reference for the assembly's.
func normReLU(v float32, mean, rstd float64, gamma, beta float32) float32 {
	y := float32(gamma*float32((float64(v)-mean)*rstd)) + beta
	if y > 0 {
		return y
	}
	return 0
}

// check panics unless the epilogue fits an m-row product that does not
// accumulate.
func (e *Epilogue) check(m int, accumulate bool) {
	if e.Bias == nil && e.Norm.Mean == nil {
		return
	}
	if accumulate {
		panic("gemm: an epilogue and accumulate are exclusive")
	}
	n := &e.Norm
	if e.Bias != nil && len(e.Bias) < m ||
		n.Mean != nil && min(len(n.Mean), len(n.Rstd), len(n.Gamma), len(n.Beta)) < m {
		panic("gemm: epilogue has fewer rows than the product")
	}
}

// GemmBatch computes count independent, same-shape products
// C[i] = op(A[i])·op(B[i]) (or += when accumulate is true). Instance i's A
// is a[i·strideA:] with leading dimension lda (strideA 0: every instance
// shares one A, packed once), its B is b's instance i and its C is c's. The
// parallel partition is over (instance × column block) pairs, so the parallel
// degree is count × ⌈n/ncBlock⌉ — what lets a convolution over a batch scale
// with the batch size when one sample's column count fits in one or two
// blocks. Each C element is owned by exactly one worker and accumulated in an
// order — K ascending within a kcBlock slice, slices ascending — that depends
// only on the problem shape, so results are bit-for-bit identical to count
// sequential Gemm calls at any budget.
//
// ep (not combined with accumulate) is applied by the store that writes each
// element: the bias by the first K slice's, the normalization by the last's,
// so neither costs a pass of its own.
//
// The packed A, and one B panel per worker slot where B is not read in
// place, are taken from ws and given back before GemmBatch returns.
func GemmBatch(ws *tensor.Workspace, count int, transA bool, m, n, k int,
	a []float32, lda, strideA int, b Operand,
	accumulate bool, ep Epilogue, c Target, workers int) {

	if count <= 0 || m <= 0 || n <= 0 {
		return
	}
	ep.check(m, accumulate)
	b.check(count, n, k)
	c.check(count, m, n)
	if k <= 0 {
		// No K: C is the bias (zero without one), normalized if asked. The
		// stores go through a copy of c: taking c's own address would move
		// it, which the closure below captures, to the heap on every call.
		c := c
		if !accumulate {
			for r := 0; r < m; r++ {
				var v float32
				if ep.Bias != nil {
					v = ep.Bias[r]
				}
				if ep.Norm.Mean != nil {
					v = ep.Norm.apply(v, r)
				}
				for i := 0; i < count; i++ {
					ci, row := c.instance(i), c.row(r)
					for j := 0; j < n; j++ {
						ci[row+c.col(j)] = v
					}
				}
			}
		}
		return
	}

	mark := ws.Mark()
	defer ws.Release(mark)
	mPad := (m + mr - 1) / mr * mr
	var cls *Classes
	steps := k // the K steps of one packed A: every one, then each class's kept ones
	if b.g.classes.panel != nil {
		if strideA != 0 {
			panic("gemm: a classed operand needs a shared A")
		}
		cls = &b.g.classes
		steps += len(cls.keep)
	}
	aSize := mPad * steps
	packed := aSize
	if strideA != 0 {
		packed *= count
	}
	packedA := ws.Take(packed)
	packAll(transA, m, k, mPad, a, lda, strideA, count, cls, packedA, workers)
	nBlocks := (n + ncBlock - 1) / ncBlock
	var panels []float32
	if !b.inPlace() {
		panels = ws.Take(min(parallel.Resolve(workers), count*nBlocks) * kcBlock * ncBlock)
	}
	parallel.ForWorkers(workers, count*nBlocks, 1, func(slot, lo, hi int) {
		c := c // macroKernel takes c's address: taking the captured one's would move it to the heap
		var panel []float32
		if panels != nil {
			panel = panels[slot*kcBlock*ncBlock:][:kcBlock*ncBlock]
		}
		for item := lo; item < hi; item++ {
			i, jb := item/nBlocks, item%nBlocks
			ai := packedA
			if strideA != 0 {
				ai = packedA[i*aSize : (i+1)*aSize]
			}
			ci := c.instance(i)
			j0 := jb * ncBlock
			jw := min(ncBlock, n-j0)
			for p0 := 0; p0 < k; p0 += kcBlock {
				pw := min(kcBlock, k-p0)
				blk := b.block(i, p0, pw, j0, jw, panel)
				blk.a, blk.mPad = ai, mPad
				st := store{add: p0 > 0 || accumulate}
				if p0 == 0 {
					st.bias = ep.Bias
				}
				if p0+pw == k {
					st.norm = ep.Norm
				}
				for i0 := 0; i0 < m; i0 += mcBlock {
					iw := min(mcBlock, m-i0)
					macroKernel(iw, jw, &blk, &c, ci, i0, j0, &st)
				}
			}
		}
	})
}

// packAll packs op(A) of every instance — of one, when strideA is 0 — whole,
// into buf: instance i's K slice at p0 is packA's mr-row panels of all m
// rows, at i·mPad·k + mPad·p0. Instances are packed in parallel; a shared A
// is split over (K slice × row panel) instead, and followed by its classes'
// copies where cls is set.
func packAll(transA bool, m, k, mPad int, a []float32, lda, strideA, count int, cls *Classes, buf []float32, workers int) {
	if strideA == 0 {
		packShared(transA, m, k, mPad, a, lda, cls, buf, workers)
		return
	}
	size := mPad * k
	parallel.ForWorkers(workers, count, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			packWhole(transA, m, k, mPad, a[i*strideA:], lda, buf[i*size:(i+1)*size])
		}
	})
}

// packWhole packs all of one op(A), K slice by K slice, as packAll lays it
// out.
func packWhole(transA bool, m, k, mPad int, a []float32, lda int, dst []float32) {
	for p0 := 0; p0 < k; p0 += kcBlock {
		packA(transA, a, lda, 0, m, p0, min(kcBlock, k-p0), dst[mPad*p0:])
	}
}

// packShared is packWhole on a worker budget: each work item packs one
// mr-row panel of one K slice into the place packWhole puts it, so the
// bits do not depend on the budget. Where cls is set, each range of items
// then copies every class's kept steps out of the panels it packed
// (Classes.pack), in the same fork.
func packShared(transA bool, m, k, mPad int, a []float32, lda int, cls *Classes, dst []float32, workers int) {
	panels := mPad / mr
	slices := (k + kcBlock - 1) / kcBlock
	grain := max(1, packGrain/(mr*min(k, kcBlock)))
	parallel.ForWorkers(workers, slices*panels, grain, func(_, lo, hi int) {
		for item := lo; item < hi; {
			p0, first := item/panels*kcBlock, item%panels
			last := min(panels, first+hi-item) // the range's row panels of this slice
			pw := min(kcBlock, k-p0)
			for ip := first; ip < last; ip++ {
				packA(transA, a, lda, ip*mr, min(mr, m-ip*mr), p0, pw, dst[mPad*p0+ip*mr*pw:])
			}
			if cls != nil {
				cls.pack(dst, mPad, p0, first, last)
			}
			item += last - first
		}
	})
}

// Operand is the B side of a GemmBatch: where each instance's op(B) lives,
// and with it how the microkernel reaches it — packed into panels block by
// block, or read in place.
type Operand struct {
	src    []float32 // instance i's B is src[i·stride:]
	stride int
	trans  bool     // Dense only
	ldb    int      // Dense only
	g      Gathered // zero for Dense
}

// Dense is the operand of stored row-major matrices: instance i's op(B) is
// the matrix at b[i·stride:] with leading dimension ldb, or its transpose
// when trans (the stored matrix is then n×k). Its blocks are packed.
func Dense(trans bool, b []float32, ldb, stride int) Operand {
	return Operand{trans: trans, src: b, stride: stride, ldb: ldb}
}

// Gathered is a virtual matrix whose elements are short contiguous runs
// scattered through a source buffer at offsets listed once:
//
//	V[r, run·v + e] = src[rows[r] + starts[v] + e],  e < run
//
// — len(rows) rows by run·len(starts) columns. A convolution's patch matrix
// has this form over a zero-haloed activation: a row is a (channel, kernel
// tap) offset, a column start an output voxel's — and so does its transpose
// over a channels-last copy, a row a voxel's offset and a start a tap's plus
// four channels'. run is 4, where V is read in place, or 1, the plain
// per-element gather, packed.
type Gathered struct {
	rows, starts []int
	run          int
	span         int     // the source must hold at least this many floats
	classes      Classes // zero: every column needs every K step
}

// NewGathered checks the offset tables of a gathered matrix once, so the
// products that read it check only the length of their source, and the
// assembly none.
func NewGathered(rows, starts []int, run int) Gathered {
	if run != 1 && run != 4 {
		panic("gemm: gathered run must be 1 or 4")
	}
	g := Gathered{rows: rows, starts: starts, run: run}
	if len(rows) > 0 && len(starts) > 0 {
		lo, hi := extremes(rows)
		slo, shi := extremes(starts)
		if lo+slo < 0 {
			panic("gemm: gathered offset is negative")
		}
		g.span = hi + shi + run
	}
	return g
}

// Operand is the GemmBatch operand whose instance i is V over
// src[i·stride:].
func (g Gathered) Operand(src []float32, stride int) Operand {
	return Operand{src: src, stride: stride, g: g}
}

// PanelWidth is the number of columns in one column panel of a product: the
// unit a Classes assigns its classes to.
const PanelWidth = nr

// Classes sorts the column panels of a gathered operand by the K steps their
// columns need: the microkernel multiplies the tiles of a class's panels by
// that class's kept steps only. Class 0 keeps every step. A convolution's
// patch matrix has panels whose every voxel reads a kernel tap from the zero
// border; those taps are the steps left out.
type Classes struct {
	panel []int // class of column panel J, columns [J·PanelWidth, (J+1)·PanelWidth)
	ends  []int // class x ≥ 1 keeps the K steps keep[ends[x-1]:ends[x]]; ends[0] = 0
	keep  []int // ascending within a class
	rows  []int // rows[e] is the operand's row offset of K step keep[e]
	k     int   // the operand's K steps
	// cuts[x·(slices+1) + s] is where class x's kept steps of K slice s, the
	// steps from s·kcBlock on, begin in keep; the last of x's entries, its end.
	cuts   []int
	slices int
}

// Classed returns g with its column panels sorted into classes: panel J is
// of class panel[J]; class 0 keeps every K step, and class x ≥ 1 the steps
// keep[ends[x-1]:ends[x]] (ends[0] = 0), ascending, whose offsets in g's row
// table rows repeats. Every element of a left-out step of a class's panels,
// dead lanes of a ragged last panel apart, must be ±0; then the product's
// bits are those of g without classes wherever A is finite (the package
// doc's Arithmetic). Only a run-4 operand multiplied by a shared A takes
// classes. Classed checks the tables once, and cuts them at the K slices, so
// the products that read them do neither: a caller that multiplies by one
// geometry again keeps the result.
func (g Gathered) Classed(panel, ends, keep, rows []int) Gathered {
	k := len(g.rows)
	switch {
	case g.run != 4:
		panic("gemm: only a run-4 gathered operand takes classes")
	case len(panel) != (g.run*len(g.starts)+nr-1)/nr:
		panic("gemm: classes do not cover the column panels")
	case len(ends) == 0 || ends[0] != 0 || ends[len(ends)-1] != len(keep) || len(rows) != len(keep):
		panic("gemm: class tables do not match")
	}
	slices := (k + kcBlock - 1) / kcBlock
	cuts := make([]int, len(ends)*(slices+1))
	for x := 1; x < len(ends); x++ {
		if ends[x-1] > ends[x] {
			panic("gemm: class tables do not match")
		}
		s := 0
		for e := ends[x-1]; e < ends[x]; e++ {
			step := keep[e]
			if step < 0 || step >= k || e > ends[x-1] && step <= keep[e-1] || rows[e] != g.rows[step] {
				panic("gemm: a class keeps K steps out of order or out of range")
			}
			for ; s*kcBlock <= step; s++ {
				cuts[x*(slices+1)+s] = e
			}
		}
		for ; s <= slices; s++ {
			cuts[x*(slices+1)+s] = ends[x]
		}
	}
	for _, x := range panel {
		if x < 0 || x >= len(ends) {
			panic("gemm: a column panel has no class")
		}
	}
	g.classes = Classes{panel: panel, ends: ends, keep: keep, rows: rows, k: k, cuts: cuts, slices: slices}
	return g
}

// span returns the kept steps of class x ≥ 1 in the K slice from p0 on, p0
// a multiple of kcBlock: keep[lo:hi].
func (cls *Classes) span(x, p0 int) (lo, hi int) {
	c := cls.cuts[x*(cls.slices+1)+p0/kcBlock:]
	return c[0], c[1]
}

// pack copies each class's kept steps of the K slice at p0, for row panels
// [first, last), out of the whole A packed at the head of dst (packWhole's
// layout) to where the class's tiles read them: class x's steps keep[lo:hi]
// of the slice at mPad·(k+lo), panel ip at ip·(hi−lo)·mr — packWhole's
// layout with K renumbered over the kept steps, the slices still cut at
// kcBlock. A run of consecutive steps is one copy per panel.
func (cls *Classes) pack(dst []float32, mPad, p0, first, last int) {
	pw := min(kcBlock, cls.k-p0)
	whole := dst[mPad*p0:]
	for x := 1; x < len(cls.ends); x++ {
		lo, hi := cls.span(x, p0)
		steps, out := cls.keep[lo:hi], dst[mPad*(cls.k+lo):]
		for e := 0; e < len(steps); {
			r := e + 1 // steps[e:r] are consecutive
			for r < len(steps) && steps[r] == steps[r-1]+1 {
				r++
			}
			for ip := first; ip < last; ip++ {
				copy(out[(ip*len(steps)+e)*mr:(ip*len(steps)+r)*mr], whole[(ip*pw+steps[e]-p0)*mr:])
			}
			e = r
		}
	}
}

// Target is the C side of a GemmBatch: where each instance's product is
// stored — a row-major matrix, or a Scattered layout.
type Target struct {
	dst    []float32 // instance i's C is dst[i·stride:]
	stride int
	ldc    int       // dense only
	s      Scattered // zero for dense
}

// Into is the target of dense row-major matrices: instance i's C is the m×n
// matrix at c[i·stride:] with leading dimension ldc.
func Into(c []float32, ldc, stride int) Target {
	return Target{dst: c, stride: stride, ldc: ldc}
}

// Scattered is the mirror of Gathered on the C side: a destination whose
// elements go in short strided runs to offsets listed once,
//
//	C[r, run·v + e] is stored at dst[rows[r] + starts[v] + e·step],  e < run
//
// — len(rows) rows by run·len(starts) columns; a dense C would be rows[r] =
// r·ldc, starts[v] = 4v, run 4, step 1. A stride-k transposed convolution's
// output has this form: a row is an (output channel, kernel tap) offset, a
// start the window corner of four input voxels along a volume row, the step
// k — and where the kernel's kx taps are adjacent rows, a full tile's store
// interleaves each pair of rows in registers and writes contiguous runs. run
// is 4, or 1 for rows whose width is not a multiple of 4 (one start per
// column). Every element must have an offset of its own: two that share one
// race.
type Scattered struct {
	rows, starts []int
	run, step    int
	span         int // the destination must hold at least this many floats
}

// NewScattered checks the offset tables of a scattered destination once, so
// the products that store through it check only the length of their
// destination, and the assembly none.
func NewScattered(rows, starts []int, run, step int) Scattered {
	if run != 1 && run != 4 || step < 1 {
		panic("gemm: scattered run must be 1 or 4, and step positive")
	}
	s := Scattered{rows: rows, starts: starts, run: run, step: step}
	if len(rows) > 0 && len(starts) > 0 {
		lo, hi := extremes(rows)
		slo, shi := extremes(starts)
		if lo+slo < 0 {
			panic("gemm: scattered offset is negative")
		}
		s.span = hi + shi + (run-1)*step + 1
	}
	return s
}

// Into is the GemmBatch target whose instance i is C scattered over
// dst[i·stride:]. s must come from NewScattered: a zero Scattered, which a
// Target reads as dense, panics.
func (s Scattered) Into(dst []float32, stride int) Target {
	if s.run == 0 {
		panic("gemm: Scattered not made by NewScattered")
	}
	return Target{dst: dst, stride: stride, s: s}
}

// check panics unless a scattered target is m×n and the destination of its
// last instance holds every offset — the bounds check of the assembly that
// stores through it, which does none. A dense target's rows are sliced, and
// so checked, as tiles are stored.
func (t Target) check(count, m, n int) {
	if t.s.run == 0 {
		return
	}
	if len(t.s.rows) != m || t.s.run*len(t.s.starts) != n {
		panic("gemm: scattered target shape does not match the product")
	}
	if t.stride < 0 || len(t.dst) < (count-1)*t.stride+t.s.span {
		panic("gemm: scattered offsets run past the end of the destination")
	}
}

// instance returns the destination of instance i, from its C's origin.
func (t *Target) instance(i int) []float32 { return t.dst[i*t.stride:] }

// row returns the offset of row r of C; col that of column j, so element
// (r, j) is stored at row(r) + col(j).
func (t *Target) row(r int) int {
	if t.s.run == 0 {
		return r * t.ldc
	}
	return t.s.rows[r]
}

func (t *Target) col(j int) int {
	switch t.s.run {
	case 0:
		return j
	case 1:
		return t.s.starts[j]
	}
	return t.s.starts[j/4] + j%4*t.s.step
}

// scatterTile reports whether the store of the full tile whose first row is
// r, as st says, is the microkernel's scattered store: runs of 4 at step 1,
// any store; or runs of 4 at step 2 on a first-slice store (bias and
// normalization allowed, no add) whose rows r, r+1 and r+2, r+3 are
// adjacent.
func (t *Target) scatterTile(st *store, r int) bool {
	rows := t.s.rows
	switch {
	case t.s.run != 4:
		return false
	case t.s.step == 1:
		return true
	}
	return t.s.step == 2 && !st.add &&
		rows[r+1] == rows[r]+1 && rows[r+3] == rows[r+2]+1
}

// extremes returns the smallest and largest element of a non-empty list.
func extremes(xs []int) (lo, hi int) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// inPlace reports whether the microkernel reads the operand where it lies:
// a gathered matrix of 4-float runs.
func (o *Operand) inPlace() bool { return o.g.run == 4 }

// check panics unless a gathered operand is k×n and the source of its last
// instance holds every offset — the bounds check of the assembly that reads
// it, which does none. A dense operand's slices are checked as they are
// packed.
func (o *Operand) check(count, n, k int) {
	if o.g.run == 0 {
		return
	}
	if len(o.g.rows) != k || o.g.run*len(o.g.starts) != n {
		panic("gemm: gathered operand shape does not match the product")
	}
	if o.stride < 0 || len(o.src) < (count-1)*o.stride+o.g.span {
		panic("gemm: gathered offsets run past the end of the source")
	}
}

// bBlock is one pw×jw block of op(B) as the microkernel reads it — K step p
// of column panel jp, lanes 4q..4q+3, is b[rows[p] + quads(jp)[q] :][:4] —
// with the packed A it meets.
type bBlock struct {
	b      []float32
	rows   []int // pw K-step offsets
	starts []int // read in place: the block's 4-column starts; nil when packed
	p0     int   // the K slice's first step

	// a is the instance's packed A, whole (GemmBatch sets it and mPad): the K
	// slice's rows r0.. at mPad·p0 + r0·pw — and, classed, class x's kept
	// steps of the slice, keep[lo:hi], at mPad·(k+lo) + r0·(hi−lo).
	a    []float32
	mPad int

	cls    *Classes // nil: every panel takes every K step
	panel0 int      // the block's first column panel among the operand's
}

// block returns instance i's pw×jw block of op(B) at (p0, j0): a view of the
// source when the operand is read in place, otherwise the block packed into
// buf as nr-column panels.
func (o *Operand) block(i, p0, pw, j0, jw int, buf []float32) bBlock {
	src := o.src[i*o.stride:]
	switch {
	case o.inPlace():
		blk := bBlock{b: src, rows: o.g.rows[p0 : p0+pw], starts: o.g.starts[j0/4 : (j0+jw)/4], p0: p0}
		if o.g.classes.panel != nil {
			blk.cls, blk.panel0 = &o.g.classes, j0/nr
		}
		return blk
	case o.g.run == 0:
		packB(o.trans, src, o.ldb, p0, pw, j0, jw, buf)
	default:
		o.g.pack(src, p0, pw, j0, jw, buf)
	}
	return bBlock{b: buf, rows: panelRows[:pw], p0: p0}
}

// class returns the class of column panel jp; 0 unclassed.
func (b *bBlock) class(jp int) int {
	if b.cls == nil {
		return 0
	}
	return b.cls.panel[b.panel0+jp]
}

// ops returns the A panels of rows r0.. and the K-step offsets that the
// tiles of class x multiply.
func (b *bBlock) ops(x, r0 int) ([]float32, []int) {
	if x == 0 {
		return b.a[b.mPad*b.p0+r0*len(b.rows):], b.rows
	}
	lo, hi := b.cls.span(x, b.p0)
	return b.a[b.mPad*(b.cls.k+lo)+r0*(hi-lo):], b.cls.rows[lo:hi]
}

// quads returns the four column-run offsets of panel jp. A ragged last panel
// read in place repeats its first run in the dead lanes, whose columns are
// never merged into C.
func (b *bBlock) quads(jp int) [4]int {
	if b.starts == nil {
		base := jp * len(b.rows) * nr
		return [4]int{base, base + 4, base + 8, base + 12}
	}
	var q [4]int
	for live := copy(q[:], b.starts[4*jp:]); live < 4; live++ {
		q[live] = q[0]
	}
	return q
}

// pack writes the pw×jw block of a run-1 V at (p0, j0) into dst as
// nr-column panels, zero past jw. At run 4 V is read in place instead.
func (g *Gathered) pack(src []float32, p0, pw, j0, jw int, dst []float32) {
	rows, starts := g.rows[p0:p0+pw], g.starts[j0:j0+jw]
	for jp := 0; jp*nr < jw; jp++ {
		out := dst[jp*pw*nr : (jp+1)*pw*nr]
		clear(out)
		for jj, sb := range starts[jp*nr : min(jw, (jp+1)*nr)] {
			for p, rb := range rows {
				out[p*nr+jj] = src[rb+sb]
			}
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

// store is how one K slice's finished sums reach C: added to C (add: a later
// slice, or an accumulating product) or written over it — plus the row's
// bias on the first slice of a biased product — and then, on the last slice
// of a normalized product, normalized and rectified. Rows are C's.
type store struct {
	add  bool
	bias []float32
	norm Norm
}

// tileStore is a store as the microkernel reads it, for the mr rows of one
// full tile. kernel_amd64.s reads the fields at the offsets noted.
//
// With rows set the tile is scattered: element (i, 4q+e) goes to
// c[rows[i] + starts[q] + step·e], c being the instance's whole
// destination. At step 1 the assembly stores (or adds onto) each row's four
// runs where they lie. At step 2 it takes rows to be two adjacent pairs
// (rows[1] = rows[0]+1, rows[3] = rows[2]+1), never adds, and stores each
// pair as four 8-float runs, the two rows interleaved. kernelGo stores any
// rows at any step.
//
// The struct is 64 bytes, which the compiler copies inline; a byte more and
// macroKernel's copies go through runtime.duffcopy.
type tileStore struct {
	add         bool         // 0
	step        uint8        // 1: the scattered runs' step
	bias        *[mr]float32 // 8: nil, or the rows' bias
	gamma, beta *[mr]float32 // 16, 24: gamma nil, no normalization
	mean, rstd  *[mr]float64 // 32, 40
	rows        *[mr]int     // 48: nil, a dense tile
	starts      *[4]int      // 56: kernelGo's column starts of a scattered tile (the assembly's come from its tileRun)
}

// tile returns the store of the full tile whose first row is r.
func (s *store) tile(r int) tileStore {
	t := tileStore{add: s.add}
	if s.bias != nil {
		t.bias = (*[mr]float32)(s.bias[r:])
	}
	if n := &s.norm; n.Mean != nil {
		t.gamma, t.beta = (*[mr]float32)(n.Gamma[r:]), (*[mr]float32)(n.Beta[r:])
		t.mean, t.rstd = (*[mr]float64)(n.Mean[r:]), (*[mr]float64)(n.Rstd[r:])
	}
	return t
}

// macroKernel multiplies the iw×pw A block of rows r0.. by the pw×jw B block
// b into the rows r0.. and columns j0.. of instance C ci, stored through c as
// st says. Its full mr×nr tiles of a dense C, and those of a scattered C
// that scatterTile admits, go to runTiles as one tileRun per run of column
// panels of one class (one in all, unclassed), stored by the microkernel;
// any other tile — ragged, or scattered in a way the microkernel does not
// store — is computed into a stack buffer and its live elements stored one
// by one, by the same epilogue in Go. A B panel stays in L1 while the A
// panels stream past it.
func macroKernel(iw, jw int, b *bBlock, c *Target, ci []float32, r0, j0 int, st *store) {
	var stores [mcBlock / mr]tileStore
	rp, cp := iw/mr, jw/nr
	for ip := range rp {
		r := r0 + ip*mr
		stores[ip] = st.tile(r)
		if c.scatterTile(st, r) {
			stores[ip].rows, stores[ip].step = (*[mr]int)(c.s.rows[r:]), uint8(c.s.step)
		}
	}
	for jp := 0; rp > 0 && jp < cp && c.s.run != 1; {
		x, end := b.class(jp), cp
		if b.cls != nil {
			for end = jp + 1; end < cp && b.class(end) == x; end++ {
			}
		}
		a, rows := b.ops(x, r0)
		full := tileRun{a: a[:rp*len(rows)*mr], b: b.b, rows: rows, st: stores[:rp], rowPanels: rp, colPanels: end - jp}
		if b.starts != nil {
			full.quads = b.starts[4*jp : 4*end]
		}
		if j := j0 + jp*nr; c.s.run == 0 {
			full.c, full.ldc = ci[r0*c.ldc+j:(r0+rp*mr-1)*c.ldc+j0+end*nr], c.ldc
		} else {
			full.c, full.cstarts = ci, c.s.starts[j/4:][:4*(end-jp)]
		}
		runTiles(&full)
		jp = end
	}

	// The Go store's tiles: the ragged ones, and every full one of a row
	// panel runTiles skipped.
	goRows := false
	for ip := range rp {
		goRows = goRows || c.s.run != 0 && stores[ip].rows == nil
	}
	var tile [mr * nr]float32
	var plain [1]tileStore
	var quads [4]int
	one := tileRun{b: b.b, quads: quads[:], c: tile[:], ldc: nr, st: plain[:], rowPanels: 1, colPanels: 1}
	var cols [nr]int // the panel's column offsets
	jp := 0
	if !goRows && iw%mr == 0 {
		jp = cp // past the column panels runTiles stored whole
	}
	for ; jp*nr < jw; jp++ {
		j := j0 + jp*nr
		live := min(nr, jw-jp*nr)
		ip := 0
		if live == nr && !goRows {
			ip = rp // past the full tiles runTiles stored
		}
		started := false
		var a []float32
		for ; ip*mr < iw; ip++ {
			rows := min(mr, iw-ip*mr)
			if rows == mr && live == nr && (c.s.run == 0 || stores[ip].rows != nil) {
				continue // runTiles stored it
			}
			if !started {
				quads = b.quads(jp)
				for jj := range cols[:live] {
					cols[jj] = c.col(j + jj)
				}
				a, one.rows = b.ops(b.class(jp), r0)
				started = true
			}
			pw := len(one.rows)
			one.a = a[ip*pw*mr : (ip+1)*pw*mr]
			runTiles(&one)
			r := r0 + ip*mr
			for ii := 0; ii < rows; ii++ {
				row := c.row(r + ii)
				for jj, v := range tile[ii*nr:][:live] {
					at := row + cols[jj]
					switch {
					case st.add:
						v = ci[at] + v
					case st.bias != nil:
						v = st.bias[r+ii] + v
					}
					if st.norm.Mean != nil {
						v = st.norm.apply(v, r+ii)
					}
					ci[at] = v
				}
			}
		}
	}
}

// tileRun is a block of full mr×nr tiles that one call of the microkernel
// runs: rowPanels × colPanels of them, tile (ip, jp) the product of A panel
// ip and B panel jp, stored as st[ip] says. kernel_amd64.s reads the fields
// at the offsets noted; the Go side slices each to the extent the tiles
// touch, which is their bounds check.
type tileRun struct {
	a    []float32 // 0: packed A, panel ip at ip·pw·mr
	b    []float32 // 24: B, K step p of panel jp at rows[p] + its quads
	rows []int     // 48: the pw K-step offsets
	// quads (72) holds B panel jp's four column-run offsets at 4·jp — a block
	// read in place, or one tile's own; nil, a packed block: jp·pw·nr + {0,
	// 4, 8, 12}.
	quads []int
	// c (96) is a dense C, tile (ip, jp) at ip·mr·ldc + jp·nr with rows ldc
	// (120) apart — or, when cstarts (128) is set, a scattered one: the
	// instance's whole destination, tile (ip, jp) stored through st[ip]'s
	// rows and the column starts at cstarts[4·jp:]. A scattered run skips
	// the row panels whose store has no rows: the Go store takes them.
	c       []float32
	ldc     int
	cstarts []int
	st      []tileStore // 152
	// rowPanels (176) and colPanels (184) count the tiles.
	rowPanels, colPanels int
}

// tilesGo runs a tileRun through kernelGo, tile by tile: the portable path,
// and the reference for the assembly's.
func tilesGo(t *tileRun) {
	pw := len(t.rows)
	for jp := range t.colPanels {
		quads := [4]int{jp * pw * nr, jp*pw*nr + 4, jp*pw*nr + 8, jp*pw*nr + 12}
		if t.quads != nil {
			quads = [4]int(t.quads[4*jp:])
		}
		for ip := range t.rowPanels {
			ap, st := t.a[ip*pw*mr:(ip+1)*pw*mr], t.st[ip]
			switch {
			case t.cstarts == nil:
				kernelGo(ap, t.b, t.rows, &quads, t.c[ip*mr*t.ldc+jp*nr:], t.ldc, &st)
			case st.rows != nil:
				st.starts = (*[4]int)(t.cstarts[4*jp:])
				kernelGo(ap, t.b, t.rows, &quads, t.c, 0, &st)
			}
		}
	}
}

// kernelGo is the portable microkernel and the reference for the assembly
// one: it computes the mr×nr tile product of a packed A panel and the B panel
// whose K step p, columns 4q..4q+3, is b[rows[p] + quads[q] :][:4], over
// len(rows) K steps, and stores it as st says: into the mr×nr block at the
// head of c, rows ldc apart, or, when st is scattered, to the tile's offsets
// in c (added onto them when st adds), touching nothing else of c. The tile
// is worked as nr/4 strips of 4×4, one per quad, so that a strip's sixteen
// accumulators are locals the compiler keeps in registers (an array would
// live in memory, and updating them four to a tuple assignment spills and
// costs a quarter of the speed). float32(·) rounds the product before the
// add: without the conversion the compiler may fuse the two into one FMA
// rounding.
func kernelGo(a, b []float32, rows []int, quads *[4]int, c []float32, ldc int, st *tileStore) {
	a = a[:len(rows)*mr]
	for q, qb := range quads {
		var c00, c01, c02, c03, c10, c11, c12, c13 float32
		var c20, c21, c22, c23, c30, c31, c32, c33 float32
		for p, rb := range rows {
			ap, bp := (*[mr]float32)(a[p*mr:]), (*[4]float32)(b[rb+qb:])
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
			at, step := i*ldc+4*q, 1 // where the run's first element goes, and how far apart
			if st.rows != nil {
				at, step = st.rows[i]+st.starts[q], int(st.step)
			}
			out := c[at : at+3*step+1]
			for jj, v := range row {
				switch {
				case st.add:
					v += out[jj*step]
				case st.bias != nil:
					v += st.bias[i]
				}
				if st.gamma != nil {
					v = normReLU(v, st.mean[i], st.rstd[i], st.gamma[i], st.beta[i])
				}
				out[jj*step] = v
			}
		}
	}
}
