package nn

import (
	"fmt"

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
// P is never built. Its source is the activation inside a K/2-wide zero
// border on every side (haloGeom); in there the element tap r reads for
// voxel v sits at rows[r] + starts[v] with no bounds to test — a
// gemm.Gathered matrix, whose two offset tables patchMatrix builds once per
// call into the layer's table buffer. In a network the layer that produces
// an activation stores it in such a buffer to begin with (Haloed, halo.go) —
// in training and in Infer alike, and so does a block's backward pass with
// the output gradient its input gradient reads — and the convolution reads
// it where it lies; a plain tensor, the network's input or a standalone
// layer's, is copied into one (padHalo). Where volume rows are a multiple of
// 4 wide the GEMM microkernel reads P in place, four voxels per run, and no
// B panel is built; other widths are packed element by element. So one routine, convGEMM, is the
// training forward, Infer and the input gradient. A 1×1×1 convolution needs
// no halo: the activation slab already is P, read as one flat row of voxels
// per channel.
//
// The kernel gradient multiplies by Pᵀ, whose K steps are voxels, and reads
// it in place too, from a channels-last copy of the activation (read from
// its interiors wherever the forward pass found it)
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
// once per call. Halo buffers, W′, the packed A and the partials are taken
// from the layer's workspace and given back before the pass returns: the
// layer holds nothing between calls but the input it was given (where it
// lies, border and all) and its offset-table buffer.

// haloGeom locates a [d, h, w] volume inside its zero-haloed copy.
type haloGeom struct {
	d, h, w int
	p       int // border width: K/2 for a K³ convolution's input
	hp, wp  int // haloed row count and row length
	vol     int // floats per haloed channel
}

func newHaloGeom(d, h, w, p int) haloGeom {
	return haloGeom{d: d, h: h, w: w, p: p, hp: h + 2*p, wp: w + 2*p,
		vol: (d + 2*p) * (h + 2*p) * (w + 2*p)}
}

// interior is the offset of the first interior voxel from its plane's start.
func (g haloGeom) interior() int { return (g.p*g.hp+g.p)*g.wp + g.p }

// appendVoxelStarts appends the offset of every run of voxels of a haloed
// plane from its first interior voxel — run voxels along a volume row each,
// rows and slabs in order — to tables: the column starts of a gathered or
// scattered matrix whose columns are the volume's voxels.
func appendVoxelStarts(tables []int, g haloGeom, run int) []int {
	for z := 0; z < g.d; z++ {
		for y := 0; y < g.h; y++ {
			for x, base := 0, (z*g.hp+y)*g.wp; x < g.w; x += run {
				tables = append(tables, base+x)
			}
		}
	}
	return tables
}

// padHalo copies count channel volumes from src into dst with a zero border.
func padHalo(dst, src []float32, count int, g haloGeom, workers int) {
	cols := g.d * g.h * g.w
	parallel.ForWorkers(workers, count, 1, func(_, lo, hi int) {
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
	tables = appendVoxelStarts(tables, g, run)
	*buf = tables
	return gemm.NewGathered(tables[:nRows], tables[nRows:], run)
}

// interiorScatter describes the interiors of m planes of a haloed
// activation, from plane c0 of a sample on, as a scattered GEMM destination:
// row r at the first interior voxel of plane c0+r, voxel (z, y, x) at its
// offset from there, four voxels a run where rows of the volume are a
// multiple of 4 wide, one otherwise. The tables are written into *buf, which
// grows to fit them.
func interiorScatter(g haloGeom, c0, m int, buf *[]int) gemm.Scattered {
	run := 1
	if g.w%4 == 0 {
		run = 4
	}
	tables := (*buf)[:0]
	for r := 0; r < m; r++ {
		tables = append(tables, (c0+r)*g.vol+g.interior())
	}
	tables = appendVoxelStarts(tables, g, run)
	*buf = tables
	return gemm.NewScattered(tables[:m], tables[m:], run, 1)
}

// convGEMM computes dst[n] = wmat·P(src[n]) for every sample, finished by
// ep's store: the same-padded K³ convolution of the [n, ch, d, h, w]
// activation src with the m filters whose rows wmat ([m, ch·K³]) holds.
// Every element of dst's interiors is written, and nothing else of its
// buffer: a whole dst by rows, any other through interiorScatter. The
// filters are packed once per call and shared by every sample; P is read in
// place where volume rows are a multiple of 4 wide.
//
// A src whose border is the halo (P = K/2, zero) is read where it lies, the
// whole batch one product. A 1×1×1 kernel needs no halo either — a whole
// activation slab already is P, one flat row of voxels per channel. Any
// other src is whole, and is copied into a halo buffer: the samples go in
// groups of one per worker, enough independent products to keep the budget
// busy where one sample is a single column block, while the buffer, taken
// once and refilled per group, stays the size of the workers' working set
// whatever the batch.
func (c *Conv3D) convGEMM(wmat []float32, m int, src, dst Haloed, ep gemm.Epilogue) {
	k, workers := c.Kernel, c.workers
	n, ch, d, h, w := src.shape("Conv3D")
	cols := d * h * w
	kdim := ch * k * k * k
	into := func(n0 int) gemm.Target {
		return gemm.Into(dst.Buf.Data()[n0*m*cols:], cols, m*cols)
	}
	if !dst.whole() {
		og := dst.geom()
		s := interiorScatter(og, dst.C0, m, &c.scatter)
		stride := dst.Buf.Dim(1) * og.vol
		into = func(n0 int) gemm.Target { return s.Into(dst.Buf.Data()[n0*stride:], stride) }
	}
	g := newHaloGeom(d, h, w, k/2)
	if k == 1 {
		if !src.whole() {
			panic("nn: a 1×1×1 Conv3D reads a whole tensor")
		}
		g = newHaloGeom(1, 1, cols, 0)
	}
	p := patchMatrix(g, ch, k, &c.tables)
	product := func(n0, count int, buf []float32, stride int) {
		gemm.GemmBatch(c.ws, count, false, m, cols, kdim, wmat, kdim, 0, p.Operand(buf, stride),
			false, ep, into(n0), workers)
	}
	switch {
	case k == 1:
		product(0, n, src.Buf.Data(), ch*cols)
		return
	case src.P == g.p:
		product(0, n, src.Buf.Data()[src.C0*g.vol:], src.Buf.Dim(1)*g.vol)
		return
	case !src.whole():
		panic(fmt.Sprintf("nn: Conv3D reads a whole tensor or one inside a border %d wide, not %d", g.p, src.P))
	}
	group := min(n, parallel.Resolve(workers))
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	halo := c.ws.Take(group * ch * g.vol)
	for n0 := 0; n0 < n; n0 += group {
		count := min(group, n-n0)
		padHalo(halo, src.Buf.Data()[n0*ch*cols:], count*ch, g, workers)
		product(n0, count, halo, ch*g.vol)
	}
}

// forward is the GEMM forward — training, evaluation and Infer alike — into
// dst. Every element of dst is written once, by the GEMM's store: the
// product plus the bias, rounded as if the bias came first, as in the direct
// reference — and then norm, when set.
func (c *Conv3D) forward(x, dst Haloed, norm gemm.Norm) {
	n, ic, d, h, w := x.shape("Conv3D")
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	checkHaloedDst("Conv3D", dst, n, c.OutChannels, d, h, w)
	c.convGEMM(c.W.Value.Data(), c.OutChannels, x, dst,
		gemm.Epilogue{Bias: c.B.Value.Data(), Norm: norm})
}

// padChannelsLast copies samples [n0, n0+count) of the activation x
// ([N, ch, d, h, w], read from its interiors) into dst channels-last,
// [count][d+2p][h+2p][w+2p][cp], zero in the border and in channels
// ch..cp−1.
func padChannelsLast(dst []float32, x Haloed, n0, count, cp int, g haloGeom, workers int) {
	_, ch, _, _, _ := x.shape("Conv3D.Backward")
	xg := x.geom()
	xd := x.Buf.Data()
	planes := g.d + 2*g.p
	plane := g.hp * g.wp * cp
	parallel.ForWorkers(workers, count*planes, 1, func(_, lo, hi int) {
		for item := lo; item < hi; item++ {
			out := dst[item*plane : (item+1)*plane]
			clear(out)
			ni, z := item/planes, item%planes-g.p
			if z < 0 || z >= g.d {
				continue
			}
			in := xd[x.plane(xg, n0+ni, 0)+z*xg.hp*xg.wp:]
			for y := 0; y < g.h; y++ {
				row := out[((y+g.p)*g.wp+g.p)*cp:][:g.w*cp]
				c := 0
				for ; c+4 <= ch; c += 4 {
					interleave(row[c:], in[c*xg.vol+y*xg.wp:], xg.vol, cp, g.w)
				}
				for ; c < ch; c++ {
					for x, v := range in[c*xg.vol+y*xg.wp:][:g.w] {
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
	n, ic, d, h, w := x.shape("Conv3D.Backward")
	oc, k := c.OutChannels, c.Kernel
	kk := k * k * k
	cols := d * h * w
	cp := (ic + 3) &^ 3
	ncols := kk * cp
	workers := c.workers
	god := gradOut.Data()

	g := newHaloGeom(d, h, w, k/2)
	pt := patchTransposed(g, cp, k, &c.tables)
	group := min(n, parallel.Resolve(workers))
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	halo := c.ws.Take(group * g.vol * cp)
	partials := c.ws.Take(n * oc * ncols)
	for n0 := 0; n0 < n; n0 += group {
		count := min(group, n-n0)
		padChannelsLast(halo, x, n0, count, cp, g, workers)
		gemm.GemmBatch(c.ws, count, false, oc, ncols, cols, god[n0*oc*cols:], cols, oc*cols, pt.Operand(halo, g.vol*cp),
			false, gemm.Epilogue{}, gemm.Into(partials[n0*oc*ncols:], ncols, oc*ncols), workers)
	}
	reduceWeightPartials(c.W.Grad.Data(), partials, n, oc, ic, kk, cp, workers)
}

// inputGradGEMM is the GEMM input-gradient pass: the convolution of the
// output gradient g with the flipped, channel-swapped kernel W′, written
// over gradIn.
func (c *Conv3D) inputGradGEMM(g Haloed, gradIn *tensor.Tensor) {
	ic, oc := c.InChannels, c.OutChannels
	kk := c.Kernel * c.Kernel * c.Kernel
	wd := c.W.Value.Data()

	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	flipped := c.ws.Take(ic * oc * kk)
	parallel.ForWorkers(c.workers, ic*oc, max(1, 4096/kk), func(_, lo, hi int) {
		for pair := lo; pair < hi; pair++ {
			ici, oci := pair/oc, pair%oc
			dst := flipped[pair*kk:][:kk]
			src := wd[(oci*ic+ici)*kk:][:kk]
			for tap := range dst {
				dst[tap] = src[kk-1-tap]
			}
		}
	})
	c.convGEMM(flipped, ic, g, Whole(gradIn), gemm.Epilogue{})
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
	parallel.ForWorkers(workers, rows*taps, max(1, 4096/ch), func(_, lo, hi int) {
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
