package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv3D is a 3-D convolution with stride 1 and "same" zero padding, the
// building block of the paper's 3D U-Net (3x3x3 body convolutions and the
// 1x1x1 sigmoid head).
//
// The compute kernels live in the conv-backend registry (see backend.go):
// Forward, Backward and Infer resolve the layer's shape through
// ResolveBackend and dispatch to the registered backend — gemm (blocked
// matrix multiply against a never-built patch matrix, conv3d_gemm.go) by
// default, the direct loop kernels in this file as the bit-exact reference,
// plus any backend linked into the binary (the generated shape-specialized
// kernels). The direct
// kernels partition the forward pass over (sample × output-channel ×
// z-plane) slabs and split the backward pass into three disjoint-output
// passes (bias over output channels, kernel gradient over (output ×
// input)-channel blocks, input gradient over (sample × input-channel)
// slabs). Every float is accumulated in exactly the order of the serial
// reference, so direct results are bit-for-bit identical to the serial
// kernels for any worker budget — see TestConv3DParallelMatchesSerial.
type Conv3D struct {
	workerBudget
	engineChoice

	InChannels  int
	OutChannels int
	Kernel      int // cubic kernel edge; must be odd for "same" padding

	W *Param // [OC, IC, K, K, K]
	B *Param // [OC]

	input *tensor.Tensor // cached for backward
}

// NewConv3D creates a stride-1 same-padded cubic convolution. Weights are
// initialized with the paper's truncated-normal initializer scaled by
// He fan-in; biases start at zero.
func NewConv3D(name string, inC, outC, kernel int, rng *rand.Rand) *Conv3D {
	if kernel%2 == 0 {
		panic(fmt.Sprintf("nn: Conv3D kernel must be odd for same padding, got %d", kernel))
	}
	fanIn := inC * kernel * kernel * kernel
	std := math.Sqrt(2.0 / float64(fanIn))
	w := tensor.TruncatedNormal(rng, 0, std, outC, inC, kernel, kernel, kernel)
	b := tensor.New(outC)
	return &Conv3D{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		W:           NewParam(name+".w", w),
		B:           NewParam(name+".b", b),
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// DropCaches implements CacheDropper: the retained input reference is
// dropped (the layer holds no scratch between calls). A Backward without an
// intervening Forward is invalid after this call, as it is before any
// Forward.
func (c *Conv3D) DropCaches() { c.input = nil }

// Forward computes the convolution of x ([N, IC, D, H, W]) and caches x for
// Backward, dispatching through the backend registry (gemm by default).
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.input = x
	return c.apply(x, tensor.New)
}

// ForwardOwned is Forward with the output written into dst.
func (c *Conv3D) ForwardOwned(x *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	c.input = x
	return c.apply(x, dst.Shaped)
}

// apply runs the resolved backend's forward kernel into a tensor drawn from
// alloc, retaining nothing.
func (c *Conv3D) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	n, _, d, h, w := check5D("Conv3D", x)
	out := alloc(n, c.OutChannels, d, h, w)
	ResolveBackend(c.engine, c.Spec()).ConvForward(c, x, out)
	return out
}

// forwardDirectInto runs the direct forward kernel into a caller-provided
// output tensor (every element is written), retaining nothing. The work is
// divided over (sample × output-channel × z-plane) slabs — z-planes are
// included so low-channel layers like the 1×1×1 sigmoid head (OC=1) still
// scale past batch-size workers — and each output element is written by
// exactly one worker, in the serial reference's accumulation order.
func (c *Conv3D) forwardDirectInto(x, out *tensor.Tensor) {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	k := c.Kernel
	p := k / 2

	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk

	oc := c.OutChannels
	parallel.ForWorkers(c.workers, n*oc*d, 1, func(lo, hi int) {
		for item := lo; item < hi; item++ {
			z := item % d
			slab := item / d
			ni, oci := slab/oc, slab%oc
			inBase := ni * sampleStrideIn
			bias := bd[oci]
			oBase := ni*sampleStrideOut + oci*chStride
			wBase := oci * wOCStride
			kz0, kz1 := kernelRange(z, p, k, d)
			for y := 0; y < h; y++ {
				ky0, ky1 := kernelRange(y, p, k, h)
				for xx := 0; xx < w; xx++ {
					kx0, kx1 := kernelRange(xx, p, k, w)
					acc := bias
					for icI := 0; icI < ic; icI++ {
						iBase := inBase + icI*chStride
						wcBase := wBase + icI*kk
						for kz := kz0; kz < kz1; kz++ {
							iz := z + kz - p
							for ky := ky0; ky < ky1; ky++ {
								iy := y + ky - p
								iRow := iBase + iz*planeStride + iy*rowStride
								wRow := wcBase + kz*k*k + ky*k
								for kx := kx0; kx < kx1; kx++ {
									acc += xd[iRow+xx+kx-p] * wd[wRow+kx]
								}
							}
						}
					}
					od[oBase+z*planeStride+y*rowStride+xx] = acc
				}
			}
		}
	})
}

// Backward accumulates kernel/bias gradients and returns dL/d(input). The
// engine-invariant bias pass runs first (biasGradPass, shared by every
// backend); the kernel- and input-gradient passes dispatch through the
// backend registry.
func (c *Conv3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, tensor.New)
}

// BackwardOwned is Backward with the input gradient written into dst.
func (c *Conv3D) BackwardOwned(gradOut *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	return c.backward(gradOut, dst.Shaped)
}

// backward accumulates the parameter gradients and writes dL/d(input) into a
// tensor drawn from alloc; a nil alloc skips the input-gradient pass and
// returns nil.
func (c *Conv3D) backward(gradOut *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	if c.input == nil {
		panic("nn: Conv3D.Backward called before Forward")
	}
	x := c.input
	n, _, d, h, w := check5D("Conv3D.Backward", x)

	b := ResolveBackend(c.engine, c.Spec())
	c.biasGradPass(gradOut.Data(), n, d*h*w, c.workers)
	b.ConvBackwardWeights(c, gradOut)
	if alloc == nil {
		return nil
	}
	gradIn := alloc(x.Shape()...)
	b.ConvBackwardInput(c, gradOut, gradIn)
	return gradIn
}

// weightGradDirect is the direct kernel-gradient pass, one owner per
// (output, input)-channel block of W. For a fixed block the accumulation
// order is samples ascending, then output voxels in scan order — exactly the
// serial reference's order for that block, so the result is bit-for-bit
// identical to the fused serial kernel at any worker budget.
func (c *Conv3D) weightGradDirect(gradOut *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	p := k / 2

	xd := x.Data()
	god := gradOut.Data()
	gwd := c.W.Grad.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk
	oc := c.OutChannels

	parallel.ForWorkers(c.workers, oc*ic, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			oci, icI := blk/ic, blk%ic
			oBaseC := oci * chStride
			wcBase := oci*wOCStride + icI*kk
			for ni := 0; ni < n; ni++ {
				inBase := ni*sampleStrideIn + icI*chStride
				oBase := ni*sampleStrideOut + oBaseC
				for z := 0; z < d; z++ {
					kz0, kz1 := kernelRange(z, p, k, d)
					for y := 0; y < h; y++ {
						ky0, ky1 := kernelRange(y, p, k, h)
						for xx := 0; xx < w; xx++ {
							g := god[oBase+z*planeStride+y*rowStride+xx]
							if g == 0 {
								continue
							}
							kx0, kx1 := kernelRange(xx, p, k, w)
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := inBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										gwd[wRow+kx] += xd[iRow+xx+kx-p] * g
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// inputGradDirect is the direct input-gradient pass, one owner per
// (sample, input-channel) slab of gradIn, which the owner zeroes first. For a
// fixed input element the accumulation order is output channels ascending,
// then output voxels in scan order — the serial reference's order, so the
// result is bit-for-bit identical at any worker budget.
func (c *Conv3D) inputGradDirect(gradOut, gradIn *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	p := k / 2

	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk
	oc := c.OutChannels

	parallel.ForWorkers(c.workers, n*ic, 1, func(lo, hi int) {
		for slab := lo; slab < hi; slab++ {
			ni, icI := slab/ic, slab%ic
			iBase := ni*sampleStrideIn + icI*chStride
			clear(gid[iBase : iBase+chStride])
			for oci := 0; oci < oc; oci++ {
				oBase := ni*sampleStrideOut + oci*chStride
				wcBase := oci*wOCStride + icI*kk
				for z := 0; z < d; z++ {
					kz0, kz1 := kernelRange(z, p, k, d)
					for y := 0; y < h; y++ {
						ky0, ky1 := kernelRange(y, p, k, h)
						for xx := 0; xx < w; xx++ {
							g := god[oBase+z*planeStride+y*rowStride+xx]
							if g == 0 {
								continue
							}
							kx0, kx1 := kernelRange(xx, p, k, w)
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := iBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										gid[iRow+xx+kx-p] += wd[wRow+kx] * g
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// forwardSerial is the original single-threaded kernel, kept as the golden
// reference for the equality tests and benchmarks.
func (c *Conv3D) forwardSerial(x *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	c.input = x
	k := c.Kernel
	p := k / 2
	out := tensor.New(n, c.OutChannels, d, h, w)

	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk

	for ni := 0; ni < n; ni++ {
		inBase := ni * sampleStrideIn
		outBase := ni * sampleStrideOut
		for oc := 0; oc < c.OutChannels; oc++ {
			bias := bd[oc]
			oBase := outBase + oc*chStride
			wBase := oc * wOCStride
			for z := 0; z < d; z++ {
				kz0, kz1 := kernelRange(z, p, k, d)
				for y := 0; y < h; y++ {
					ky0, ky1 := kernelRange(y, p, k, h)
					for xx := 0; xx < w; xx++ {
						kx0, kx1 := kernelRange(xx, p, k, w)
						acc := bias
						for icI := 0; icI < ic; icI++ {
							iBase := inBase + icI*chStride
							wcBase := wBase + icI*kk
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := iBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										acc += xd[iRow+xx+kx-p] * wd[wRow+kx]
									}
								}
							}
						}
						od[oBase+z*planeStride+y*rowStride+xx] = acc
					}
				}
			}
		}
	}
	return out
}

// backwardSerial is the original fused single-threaded backward kernel, kept
// as the golden reference for the equality tests and benchmarks.
func (c *Conv3D) backwardSerial(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.input == nil {
		panic("nn: Conv3D.Backward called before Forward")
	}
	x := c.input
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	p := k / 2
	gradIn := tensor.New(x.Shape()...)

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()
	gbd := c.B.Grad.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk

	for ni := 0; ni < n; ni++ {
		inBase := ni * sampleStrideIn
		outBase := ni * sampleStrideOut
		for oc := 0; oc < c.OutChannels; oc++ {
			oBase := outBase + oc*chStride
			wBase := oc * wOCStride
			var biasAcc float32
			for z := 0; z < d; z++ {
				kz0, kz1 := kernelRange(z, p, k, d)
				for y := 0; y < h; y++ {
					ky0, ky1 := kernelRange(y, p, k, h)
					for xx := 0; xx < w; xx++ {
						g := god[oBase+z*planeStride+y*rowStride+xx]
						if g == 0 {
							continue
						}
						biasAcc += g
						kx0, kx1 := kernelRange(xx, p, k, w)
						for icI := 0; icI < ic; icI++ {
							iBase := inBase + icI*chStride
							wcBase := wBase + icI*kk
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := iBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										ii := iRow + xx + kx - p
										gwd[wRow+kx] += xd[ii] * g
										gid[ii] += wd[wRow+kx] * g
									}
								}
							}
						}
					}
				}
			}
			gbd[oc] += biasAcc
		}
	}
	return gradIn
}

// biasGradPass accumulates the bias gradient — the sum of gradOut per
// output channel — with one owner per channel and samples added in
// ascending order, exactly as the serial reference does. Every backend
// shares it: the per-(sample, channel) float32 sub-totals make it
// bit-for-bit equal to the serial kernel at any worker budget.
func (c *Conv3D) biasGradPass(god []float32, n, chStride, workers int) {
	oc := c.OutChannels
	gbd := c.B.Grad.Data()
	sampleStride := oc * chStride
	parallel.ForWorkers(workers, oc, 1, func(lo, hi int) {
		for oci := lo; oci < hi; oci++ {
			for ni := 0; ni < n; ni++ {
				oBase := ni*sampleStride + oci*chStride
				var biasAcc float32
				for _, g := range god[oBase : oBase+chStride] {
					if g != 0 {
						biasAcc += g
					}
				}
				gbd[oci] += biasAcc
			}
		}
	})
}

// kernelRange returns [k0, k1) such that pos+kz-p stays within [0, dim).
func kernelRange(pos, p, k, dim int) (int, int) {
	k0 := p - pos
	if k0 < 0 {
		k0 = 0
	}
	k1 := dim + p - pos
	if k1 > k {
		k1 = k
	}
	return k0, k1
}
