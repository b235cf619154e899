package nn

import (
	"fmt"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// GEMM lowering of ConvTranspose3D: because the kernel edge equals the
// stride, output windows never overlap, so the transposed convolution is a
// matrix product whose column matrix sits on the output side. With W as the
// [IC, OC·K³] matrix, x[n] as [IC, D·H·W] and Cols as [OC·K³, D·H·W] (one
// row per output channel and position within a window, in (oc, kz, ky, kx)
// order),
//
//	forward:          Out[n]  = scatter(Wᵀ·x[n] + b)
//	backward-weights: gW     += x[n]·Colsᵀ(gOut[n])
//	backward-input:   gIn[n]  = W·Cols(gOut[n])
//
// The forward's scatter is the GEMM's store into a gemm.Scattered Out[n]
// (upScatter), so one batched product, Wᵀ packed once, writes every output
// voxel once, bias added; at K = 2 each register tile holds two kx row
// pairs, which the assembly store interleaves into contiguous runs. The
// backward gathers the output gradient into column form once, a pure copy
// (each output voxel belongs to exactly one window), for the two batched
// gradient products. Out may be the first OC channels of a wider tensor, the
// decoder's concatenation, and in Infer a window of channels of a haloed one.

// upScatter describes the output of one sample — channels c0.. of a haloed
// activation of geometry g, the input's extents times k — as the scattered
// destination of the forward product: row (oc, kz, ky, kx) at channel
// c0+oc's first interior voxel plus the tap's offset from the window
// corner, and voxel (z, y, x)'s window corner as its start, four voxels a
// run where input rows are a multiple of 4 wide (the outputs K apart), one
// otherwise. The tables are written into *buf, which grows to fit them.
func upScatter(g haloGeom, c0, oc, k int, buf *[]int) gemm.Scattered {
	d, h, w := g.d/k, g.h/k, g.w/k
	tables := (*buf)[:0]
	for o := 0; o < oc; o++ {
		for kz := 0; kz < k; kz++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					tables = append(tables, (c0+o)*g.vol+g.interior()+(kz*g.hp+ky)*g.wp+kx)
				}
			}
		}
	}
	nRows := len(tables)
	run := 1
	if w%4 == 0 {
		run = 4
	}
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x += run {
				tables = append(tables, (z*k*g.hp+y*k)*g.wp+x*k)
			}
		}
	}
	*buf = tables
	return gemm.NewScattered(tables[:nRows], tables[nRows:], run, k)
}

// InferInto is ForwardInto without caching x for Backward: the forward
// product into the first OC channels of dst ([N, C ≥ OC, K·D, K·H, K·W]).
// Every element of those channels is written once, by the GEMM's store, and
// nothing else of dst.
func (c *ConvTranspose3D) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	c.InferHaloed(x, Haloed{Buf: dst, C: c.OutChannels})
	return dst
}

// InferHaloed is InferInto into the interiors of a haloed activation of OC
// channels, and nothing else of its buffer.
func (c *ConvTranspose3D) InferHaloed(x *tensor.Tensor, dst Haloed) {
	n, ic, d, h, w := check5D("ConvTranspose3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ic))
	}
	k, oc := c.Kernel, c.OutChannels
	checkHaloedDst("ConvTranspose3D", dst, n, oc, d*k, h*k, w*k)
	kk := k * k * k
	rows, cols := oc*kk, d*h*w

	g := dst.geom()
	out := upScatter(g, dst.C0, oc, k, &c.tables)
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	bias := c.ws.Take(rows)
	for r := range bias {
		bias[r] = c.B.Value.Data()[r/kk]
	}
	// Out = Wᵀ·x[n] + b: W is stored [IC, OC·K³] row-major, so op(A) = Aᵀ.
	gemm.GemmBatch(c.ws, n, true, rows, cols, ic, c.W.Value.Data(), rows, 0,
		gemm.Dense(false, x.Data(), cols, ic*cols),
		false, gemm.Epilogue{Bias: bias}, out.Into(dst.Buf.Data(), dst.Buf.Dim(1)*g.vol), c.workers)
}

// backwardGEMMInto is the fused GEMM kernel- and input-gradient pass (the
// bias pass runs in the layer before it) on the output gradient in the first
// OC channels of g: they are gathered into column form once and feed
// both the batched kernel-gradient product and the batched input-gradient
// product.
func (c *ConvTranspose3D) backwardGEMMInto(g, gradIn *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("ConvTranspose3D.Backward", x)
	ch := g.Dim(1)
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	oc := c.OutChannels

	god := g.Data()
	inCols := d * h * w
	outCh := od * oh * ow
	kk := k * k * k
	rows := oc * kk
	workers := c.workers

	// Gather the whole batch's output gradients into column form (inverse
	// of the forward scatter), one owner per (sample, oc, tap) row, so the
	// products below run every sample at once.
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	gradCols := c.ws.Take(n * rows * inCols)
	parallel.ForWorkers(workers, n*rows, 1, func(_, lo, hi int) {
		for item := lo; item < hi; item++ {
			ni, r := item/rows, item%rows
			tap := r % kk
			oci := r / kk
			kx := tap % k
			ky := (tap / k) % k
			kz := tap / (k * k)
			oBase := (ni*ch + oci) * outCh
			dst := gradCols[(ni*rows+r)*inCols:]
			for z := 0; z < d; z++ {
				for y := 0; y < h; y++ {
					s := (z*h + y) * w
					srow := god[oBase+((z*k+kz)*oh+y*k+ky)*ow+kx:]
					for xx := 0; xx < w; xx++ {
						dst[s+xx] = srow[xx*k]
					}
				}
			}
		}
	})

	// Kernel gradient: per-sample partials x[n]·gradColsᵀ in parallel over
	// (sample × column block), then gW += partials in ascending sample
	// order per element (see conv3d_gemm.go).
	partials := c.ws.Take(n * ic * rows)
	gemm.GemmBatch(c.ws, n, false, ic, rows, inCols, x.Data(), inCols, ic*inCols,
		gemm.Dense(true, gradCols, inCols, rows*inCols),
		false, gemm.Epilogue{}, gemm.Into(partials, rows, ic*rows), workers)
	reduceWeightPartials(c.W.Grad.Data(), partials, n, ic, rows, 1, rows, workers)

	// Input gradient: gIn[n] = W·gradCols[n], W packed once.
	gemm.GemmBatch(c.ws, n, false, ic, inCols, rows, c.W.Value.Data(), rows, 0,
		gemm.Dense(false, gradCols, inCols, rows*inCols),
		false, gemm.Epilogue{}, gemm.Into(gradIn.Data(), inCols, ic*inCols), workers)
}
