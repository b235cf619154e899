package nn

import (
	"fmt"
	"sync"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// GEMM lowering of Conv3D. A stride-1, same-padded convolution is a matrix
// product against the patch matrix P ([C·K³, D·H·W]) of each sample — row
// (c, kz, ky, kx) is channel c shifted by that kernel tap, zero where the tap
// leaves the volume — and all three passes are such products:
//
//	forward:          Out[n]  = W·P(x[n]) + b          W as [OC, IC·K³]
//	backward-weights: gW     += gOut[n]·P(x[n])ᵀ
//	backward-input:   gIn[n]  = W′·P(gOut[n])          W′ as [IC, OC·K³]
//
// The last line is the input gradient written as what it is, a convolution of
// the output gradient with the kernel flipped end to end and its channel axes
// swapped: W′[ic, oc, tap] = W[oc, ic, K³−1−tap] (rebuilt from W per call, so
// there is nothing to go stale when an optimizer or a model swap changes W).
//
// P is never built. Each pass copies its activation once into a buffer with
// a K/2-wide zero border on every side (haloGeom, padHalo); in there the
// element tap r reads for voxel v sits at rows[r] + starts[v] with no bounds
// to test — a gemm.Gathered matrix, whose two offset tables patchMatrix
// builds once per call. Where volume rows are a multiple of 4 wide the GEMM
// microkernel reads P there in place, four voxels per run, and no B panel is
// built; other widths are packed element by element. So one routine,
// convGEMM, is the training forward, Infer and the input gradient. A 1×1×1
// convolution needs no halo: the activation slab already is P, read as one
// flat row of voxels per channel.
//
// The kernel gradient multiplies by Pᵀ, whose K steps are voxels, and reads
// it in place too, from a channels-last copy of the activation
// ([D+2p][H+2p][W+2p][Cp], Cp = IC rounded up to 4, the extra channels zero;
// padChannelsLast): there the four channels c0..c0+3 a tap reads for a voxel
// are one run, at the voxel's offset plus the tap's (patchTransposed). The
// product's columns come out in (tap, c) order, padding channels included,
// and reduceWeightPartials permutes them onto gW's (c, tap) layout as it
// adds the samples up. One path serves every kernel size and row width.
//
// The kernel consumes the same floats in the same order as from panels
// copied out of a materialized patch matrix — each gW element sees the same
// K sequence in the same kcBlock slices — so the forward output and the
// kernel gradient are bit-for-bit what the im2col lowering this replaced
// produced (TestConvGoldenHash); the input gradient is one K = OC·K³ dot per
// element.
//
// The forward's bias is added by the GEMM's store (gemm.Epilogue), as the
// element leaves the register tile, so the output is written once; in
// ConvBNReLU.Infer the same store then applies the
// running-statistics BatchNorm and the ReLU, and the body site is this one
// product.
//
// Every product runs as a gemm.GemmBatch over the batch — parallel over
// (sample × column block) with a fixed per-element accumulation order, so all
// three passes are bit-for-bit independent of the worker budget — and the
// kernel gradient is reduced onto gW from per-sample partials in ascending
// sample order. The GEMM packs its A side — W, W′ or the output gradient —
// once per call. Halo buffers, W′, the packed A and the partials come from
// the tensor scratch pool and go back before the pass returns: the layer
// holds nothing between calls but the input it was given, so Infer can run
// on a model that is training.

// haloGeom locates a [d, h, w] volume inside its zero-haloed copy.
type haloGeom struct {
	d, h, w int
	p       int // border width, K/2
	hp, wp  int // haloed row count and row length
	vol     int // floats per haloed channel
}

func newHaloGeom(d, h, w, k int) haloGeom {
	p := k / 2
	return haloGeom{d: d, h: h, w: w, p: p, hp: h + 2*p, wp: w + 2*p,
		vol: (d + 2*p) * (h + 2*p) * (w + 2*p)}
}

// padHalo copies count channel volumes from src into dst with a zero border.
func padHalo(dst, src []float32, count int, g haloGeom, workers int) {
	cols := g.d * g.h * g.w
	parallel.ForWorkers(workers, count, 1, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			out := dst[ch*g.vol : (ch+1)*g.vol]
			clear(out)
			in := src[ch*cols : (ch+1)*cols]
			for z := 0; z < g.d; z++ {
				for y := 0; y < g.h; y++ {
					copy(out[((z+g.p)*g.hp+y+g.p)*g.wp+g.p:][:g.w], in[(z*g.h+y)*g.w:])
				}
			}
		}
	})
}

// patchTables recycles the offset tables of convolution calls, so a
// steady-state call allocates none.
var patchTables = sync.Pool{New: func() any { return new([]int) }}

// patchMatrix describes the patch matrix of one sample's haloed activation
// ([ch] volumes of g.vol floats) as a gathered matrix: patch row r =
// (channel, tap) and voxel v = (z, y, x) meet at halo[rows[r] + starts[v]],
// where rows[r] is the channel's base plus the tap's offset from the
// window's corner, and starts[v] the corner's offset. Where rows of the
// volume are a multiple of four wide, four voxels at a time share a start —
// the form the GEMM reads in place; any other width goes element by element.
// The tables are written into *buf, which grows to fit them.
func patchMatrix(g haloGeom, ch, k int, buf *[]int) gemm.Gathered {
	run := 1
	if g.w%4 == 0 {
		run = 4
	}
	kk := k * k * k
	tables := (*buf)[:0]
	for kz := 0; kz < k; kz++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				tables = append(tables, (kz*g.hp+ky)*g.wp+kx)
			}
		}
	}
	for r := kk; r < ch*kk; r++ {
		tables = append(tables, tables[r-kk]+g.vol)
	}
	nRows := len(tables)
	for z := 0; z < g.d; z++ {
		for y := 0; y < g.h; y++ {
			for x, base := 0, (z*g.hp+y)*g.wp; x < g.w; x += run {
				tables = append(tables, base+x)
			}
		}
	}
	*buf = tables
	return gemm.NewGathered(tables[:nRows], tables[nRows:], run)
}

// convGEMM computes dst[n] = wmat·P(src[n]) for every sample, finished by
// ep's store: the same-padded K³ convolution of the [n, ch, d, h, w]
// activation src with the m filters whose rows wmat ([m, ch·K³]) holds.
// Every element of dst is written. The filters are packed once per call and
// shared by every sample; P is read in place where volume rows are a
// multiple of 4 wide.
//
// A 1×1×1 kernel needs no halo — the activation slab already is P, one flat
// row of voxels per channel — so the whole batch is one product over src.
// Otherwise the samples go in groups of one per worker: enough independent
// products to keep the budget busy where one sample is a single column
// block, while the halo buffer, drawn once and refilled per group, stays the
// size of the workers' working set whatever the batch.
func convGEMM(wmat []float32, m, ch, k int, src []float32, n, d, h, w int,
	ep gemm.Epilogue, dst []float32, workers int) {

	cols := d * h * w
	kdim := ch * k * k * k
	if k == 1 {
		d, h, w = 1, 1, cols
	}
	g := newHaloGeom(d, h, w, k)
	tables := patchTables.Get().(*[]int)
	defer patchTables.Put(tables)
	p := patchMatrix(g, ch, k, tables)
	product := func(n0, count int, buf []float32, stride int) {
		gemm.GemmBatch(count, false, m, cols, kdim, wmat, kdim, 0, p.Operand(buf, stride),
			false, ep, gemm.Into(dst[n0*m*cols:], cols, m*cols), workers)
	}
	if k == 1 {
		product(0, n, src, ch*cols)
		return
	}
	group := min(n, parallel.Resolve(workers))
	halo := tensor.GetScratch(group * ch * g.vol)
	defer tensor.PutScratch(halo)
	for n0 := 0; n0 < n; n0 += group {
		count := min(group, n-n0)
		padHalo(halo, src[n0*ch*cols:], count*ch, g, workers)
		product(n0, count, halo, ch*g.vol)
	}
}

// forwardGEMMInto is the GEMM forward — training, evaluation and Infer alike
// — into a caller-provided output tensor. Every element is written once, by
// the GEMM's store: the product plus the bias, rounded as if the bias came
// first, as in the direct reference — and then norm, when set.
func (c *Conv3D) forwardGEMMInto(x, out *tensor.Tensor, norm gemm.Norm) {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	convGEMM(c.W.Value.Data(), c.OutChannels, ic, c.Kernel, x.Data(), n, d, h, w,
		gemm.Epilogue{Bias: c.B.Value.Data(), Norm: norm}, out.Data(), c.workers)
}

// padChannelsLast copies count samples of a [count, ch, d, h, w] activation
// into dst channels-last, [count][d+2p][h+2p][w+2p][cp], zero in the border
// and in channels ch..cp−1.
func padChannelsLast(dst, src []float32, count, ch, cp int, g haloGeom, workers int) {
	cols := g.d * g.h * g.w
	planes := g.d + 2*g.p
	plane := g.hp * g.wp * cp
	parallel.ForWorkers(workers, count*planes, 1, func(lo, hi int) {
		for item := lo; item < hi; item++ {
			out := dst[item*plane : (item+1)*plane]
			clear(out)
			ni, z := item/planes, item%planes-g.p
			if z < 0 || z >= g.d {
				continue
			}
			in := src[ni*ch*cols+z*g.h*g.w:]
			for y := 0; y < g.h; y++ {
				row := out[((y+g.p)*g.wp+g.p)*cp:][:g.w*cp]
				channel := func(c int) []float32 { return in[c*cols+y*g.w:][:g.w] }
				c := 0
				for ; c+4 <= ch; c += 4 {
					interleave(row[c:], in[c*cols+y*g.w:], cols, cp, g.w)
				}
				for ; c < ch; c++ {
					for x, v := range channel(c) {
						row[x*cp+c] = v
					}
				}
			}
		}
	})
}

// interleave copies four channel rows of count voxels, channel j at
// src[j·stride:], into dst channels-last: dst[x·cp + j] = src[j·stride + x].
// The leading multiple of 4 voxels runs in AVX2 where it is live.
func interleave(dst, src []float32, stride, cp, count int) {
	if done := interleaveVec(dst, src, stride, cp, count); done < count {
		interleaveGo(dst[done*cp:], src[done:], stride, cp, count-done)
	}
}

func interleaveGo(dst, src []float32, stride, cp, count int) {
	r0, r1, r2, r3 := src[:count], src[stride:][:count], src[2*stride:][:count], src[3*stride:][:count]
	for x, v := range r0 {
		*(*[4]float32)(dst[x*cp:]) = [4]float32{v, r1[x], r2[x], r3[x]}
	}
}

// patchTransposed describes Pᵀ of one sample's channels-last halo (cp
// channels, cp a multiple of 4) as a gathered matrix read in place: K step v
// is voxel v, at rows[v] = its window corner's offset, and column run
// (tap, c0) — channels c0..c0+3 of kernel tap tap — starts at the tap's
// offset from the corner plus c0. The columns are in (tap, c) order, kk·cp
// of them. The tables are written into *buf, which grows to fit them.
func patchTransposed(g haloGeom, cp, k int, buf *[]int) gemm.Gathered {
	tables := (*buf)[:0]
	for z := 0; z < g.d; z++ {
		for y := 0; y < g.h; y++ {
			for x, base := 0, (z*g.hp+y)*g.wp; x < g.w; x++ {
				tables = append(tables, (base+x)*cp)
			}
		}
	}
	nRows := len(tables)
	for kz := 0; kz < k; kz++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				tap := ((kz*g.hp+ky)*g.wp + kx) * cp
				for c0 := 0; c0 < cp; c0 += 4 {
					tables = append(tables, tap+c0)
				}
			}
		}
	}
	*buf = tables
	return gemm.NewGathered(tables[:nRows], tables[nRows:], 4)
}

// weightGradGEMM is the GEMM kernel-gradient pass: per-sample partials
// gOut[n]·P(x[n])ᵀ, in (tap, c) column order, in parallel over (sample ×
// column block) and sample groups as convGEMM forms them; then gW +=
// partials in ascending sample order per element.
func (c *Conv3D) weightGradGEMM(gradOut *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	oc, k := c.OutChannels, c.Kernel
	kk := k * k * k
	cols := d * h * w
	cp := (ic + 3) &^ 3
	ncols := kk * cp
	workers := c.workers
	xd, god := x.Data(), gradOut.Data()

	g := newHaloGeom(d, h, w, k)
	tables := patchTables.Get().(*[]int)
	defer patchTables.Put(tables)
	pt := patchTransposed(g, cp, k, tables)
	group := min(n, parallel.Resolve(workers))
	halo := tensor.GetScratch(group * g.vol * cp)
	defer tensor.PutScratch(halo)
	partials := tensor.GetScratch(n * oc * ncols)
	defer tensor.PutScratch(partials)
	for n0 := 0; n0 < n; n0 += group {
		count := min(group, n-n0)
		padChannelsLast(halo, xd[n0*ic*cols:], count, ic, cp, g, workers)
		gemm.GemmBatch(count, false, oc, ncols, cols, god[n0*oc*cols:], cols, oc*cols, pt.Operand(halo, g.vol*cp),
			false, gemm.Epilogue{}, gemm.Into(partials[n0*oc*ncols:], ncols, oc*ncols), workers)
	}
	reduceWeightPartials(c.W.Grad.Data(), partials, n, oc, ic, kk, cp, workers)
}

// inputGradGEMM is the GEMM input-gradient pass: the convolution of gradOut
// with the flipped, channel-swapped kernel W′, written over gradIn.
func (c *Conv3D) inputGradGEMM(gradOut, gradIn *tensor.Tensor) {
	n, ic, d, h, w := check5D("Conv3D.Backward", c.input)
	oc := c.OutChannels
	kk := c.Kernel * c.Kernel * c.Kernel
	wd := c.W.Value.Data()

	flipped := tensor.GetScratch(ic * oc * kk)
	defer tensor.PutScratch(flipped)
	for ici := 0; ici < ic; ici++ {
		for oci := 0; oci < oc; oci++ {
			dst := flipped[(ici*oc+oci)*kk:][:kk]
			src := wd[(oci*ic+ici)*kk:][:kk]
			for tap := range dst {
				dst[tap] = src[kk-1-tap]
			}
		}
	}
	convGEMM(flipped, ic, oc, c.Kernel, gradOut.Data(), n, d, h, w, gemm.Epilogue{}, gradIn.Data(), c.workers)
}

// reduceWeightPartials adds n per-sample partial kernel gradients onto
// grad ([rows, ch, taps]). Each partial is [rows, taps, stride], stride ≥ ch:
// element (r, c, tap) of sample i is partials[((i·rows + r)·taps + tap)·stride
// + c], so a partial with its columns in (tap, c) order — padding channels
// past ch ignored — lands on the (c, tap) layout; at taps 1 and stride ch it
// is grad's own layout. Each gradient element is owned by one worker and
// receives its partials in ascending sample order, so the reduction is
// bit-for-bit identical at any worker budget.
func reduceWeightPartials(grad, partials []float32, n, rows, ch, taps, stride, workers int) {
	size := rows * taps * stride
	parallel.ForWorkers(workers, rows*taps, max(1, 4096/ch), func(lo, hi int) {
		for ni := 0; ni < n; ni++ {
			part := partials[ni*size : (ni+1)*size]
			for item := lo; item < hi; item++ {
				r, tap := item/taps, item%taps
				dst := grad[r*ch*taps+tap:]
				for c, v := range part[item*stride:][:ch] {
					dst[c*taps] += v
				}
			}
		}
	})
}
