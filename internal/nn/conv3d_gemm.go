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
// P is never built. Each pass copies its activation once into a buffer with
// a K/2-wide zero border on every side (haloGeom, padHalo); in there the
// element tap r reads for voxel v sits at rows[r] + starts[v] with no bounds
// to test, which is the form gemm.PackGathered packs B panels from. So one
// routine, convGEMM, is the training forward, Infer and the input gradient,
// and the kernel gradient differs only in packing P transposed. The packed
// panels hold the same floats in the same order as panels copied out of a
// materialized patch matrix, so the forward output and the kernel gradient
// are bit-for-bit what the im2col lowering this replaced produced
// (TestConvGoldenHash); the input gradient is one K = OC·K³ dot per element.
// A 1×1×1 convolution needs no halo: the activation slab already is P.
//
// Every product runs as a gemm.GemmBatch over the batch — parallel over
// (sample × column block) with a fixed per-element accumulation order, so all
// three passes are bit-for-bit independent of the worker budget — and the
// kernel gradient is reduced onto gW from per-sample partials in ascending
// sample order. Halo buffers, W′ and the partials come from the tensor
// scratch pool and go back before the pass returns: the layer holds nothing
// between calls but the input it was given.

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

// haloPacker returns the gemm.PackBFunc of the patch matrix of one sample's
// haloed activation (or of its transpose): patch row r = (channel, tap) and
// voxel v = (z, y, x) meet at halo[rows[r] + starts[v]], where rows[r] is the
// channel's base plus the tap's offset from the window's corner, and
// starts[v] the corner's offset. taps holds the K³ tap offsets. Where rows
// of the volume are a multiple of four wide, four voxels at a time share a
// start and move as one vector; any other width goes element by element.
func haloPacker(trans bool, halo []float32, g haloGeom, taps []int) gemm.PackBFunc {
	run := 1
	if g.w%4 == 0 {
		run = 4
	}
	return func(p0, pw, j0, jw int, dst []float32) {
		var rowBuf, startBuf [gemm.BlockDepth]int
		r0, rn, v0, vn := p0, pw, j0, jw
		if trans {
			r0, rn, v0, vn = j0, jw, p0, pw
		}
		rows := rowBuf[:rn]
		base, tap := r0/len(taps)*g.vol, r0%len(taps)
		for i := range rows {
			rows[i] = base + taps[tap]
			if tap++; tap == len(taps) {
				base, tap = base+g.vol, 0
			}
		}
		starts := startBuf[:vn/run]
		for i := range starts {
			v := v0 + i*run
			starts[i] = (v/(g.h*g.w)*g.hp+v/g.w%g.h)*g.wp + v%g.w
		}
		gemm.PackGathered(trans, dst, halo, rows, starts, run)
	}
}

// tapOffsets lists, for each of the K³ kernel taps in (kz, ky, kx) order, the
// offset of the element it reads from the corner of the haloed window.
func tapOffsets(k int, g haloGeom) []int {
	taps := make([]int, 0, k*k*k)
	for kz := 0; kz < k; kz++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				taps = append(taps, (kz*g.hp+ky)*g.wp+kx)
			}
		}
	}
	return taps
}

// overPatches calls fn with the packers of P(src[n0]), P(src[n0+1]), … — or
// of their transposes — for consecutive groups of samples of a [n, ch, d, h,
// w] activation. A group is one sample per worker: enough independent
// products to keep the budget busy where one sample is a single column block,
// while the halo buffer the packers read, drawn once and refilled per group,
// stays the size of the workers' working set whatever the batch.
func overPatches(trans bool, src []float32, n, ch, d, h, w, k, workers int,
	fn func(n0 int, packers []gemm.PackBFunc)) {

	cols := d * h * w
	packers := make([]gemm.PackBFunc, n)
	if k == 1 {
		for ni := range packers {
			packers[ni] = gemm.PackDense(trans, src[ni*ch*cols:(ni+1)*ch*cols], cols)
		}
		fn(0, packers)
		return
	}
	g := newHaloGeom(d, h, w, k)
	taps := tapOffsets(k, g)
	group := min(n, parallel.Resolve(workers))
	halo := tensor.GetScratch(group * ch * g.vol)
	defer tensor.PutScratch(halo)
	for n0 := 0; n0 < n; n0 += group {
		packers = packers[:min(group, n-n0)]
		padHalo(halo, src[n0*ch*cols:], len(packers)*ch, g, workers)
		for i := range packers {
			packers[i] = haloPacker(trans, halo[i*ch*g.vol:(i+1)*ch*g.vol], g, taps)
		}
		fn(n0, packers)
	}
}

// convGEMM computes dst[n] = wmat·P(src[n]) for every sample (plus bias[r]
// on row r when bias is non-nil): the same-padded K³ convolution of the [n,
// ch, d, h, w] activation src with the m filters whose rows wmat ([m, ch·K³])
// holds. Every element of dst is written.
func convGEMM(wmat []float32, m, ch, k int, src []float32, n, d, h, w int,
	bias, dst []float32, workers int) {

	cols := d * h * w
	kdim := ch * k * k * k
	overPatches(false, src, n, ch, d, h, w, k, workers, func(n0 int, packers []gemm.PackBFunc) {
		gemm.GemmBatch(len(packers), false, m, cols, kdim,
			func(int) []float32 { return wmat }, kdim,
			func(i int) gemm.PackBFunc { return packers[i] }, false, bias,
			func(i int) []float32 { return dst[(n0+i)*m*cols : (n0+i+1)*m*cols] }, cols,
			workers)
	})
}

// forwardGEMMInto is the GEMM forward — training, evaluation and Infer alike
// — into a caller-provided output tensor. Every element is written: the bias
// first, as in the direct reference, then the product accumulated onto it —
// each column block seeded by the worker about to multiply into it.
func (c *Conv3D) forwardGEMMInto(x, out *tensor.Tensor) {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	convGEMM(c.W.Value.Data(), c.OutChannels, ic, c.Kernel, x.Data(), n, d, h, w,
		c.B.Value.Data(), out.Data(), c.workers)
}

// weightGradGEMM is the GEMM kernel-gradient pass: per-sample partials
// gOut[n]·P(x[n])ᵀ in parallel over (sample × column block), then
// gW += partials in ascending sample order per element.
func (c *Conv3D) weightGradGEMM(gradOut *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	oc := c.OutChannels
	cols := d * h * w
	kdim := ic * c.Kernel * c.Kernel * c.Kernel
	workers := c.workers
	god := gradOut.Data()

	partials := tensor.GetScratch(n * oc * kdim)
	defer tensor.PutScratch(partials)
	overPatches(true, x.Data(), n, ic, d, h, w, c.Kernel, workers, func(n0 int, packers []gemm.PackBFunc) {
		gemm.GemmBatch(len(packers), false, oc, kdim, cols,
			func(i int) []float32 { return god[(n0+i)*oc*cols : (n0+i+1)*oc*cols] }, cols,
			func(i int) gemm.PackBFunc { return packers[i] }, false, nil,
			func(i int) []float32 { return partials[(n0+i)*oc*kdim : (n0+i+1)*oc*kdim] }, kdim,
			workers)
	})
	reduceWeightPartials(c.W.Grad.Data(), partials, n, oc*kdim, workers)
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
	convGEMM(flipped, ic, oc, c.Kernel, gradOut.Data(), n, d, h, w, nil, gradIn.Data(), c.workers)
}

// reduceWeightPartials adds n concatenated per-sample partial gradient
// buffers (elems floats each) onto grad. Each gradient element is owned by
// one worker and receives its partials in ascending sample order, so the
// reduction is bit-for-bit identical at any worker budget.
func reduceWeightPartials(grad, partials []float32, n, elems, workers int) {
	parallel.ForWorkers(workers, elems, 4096, func(lo, hi int) {
		for ni := 0; ni < n; ni++ {
			part := partials[ni*elems : (ni+1)*elems]
			for j := lo; j < hi; j++ {
				grad[j] += part[j]
			}
		}
	})
}
