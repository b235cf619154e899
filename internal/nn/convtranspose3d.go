package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ConvTranspose3D is the paper's up-convolution: a transposed convolution
// with a 2x2x2 kernel and stride 2 in each dimension, exactly doubling the
// spatial extent. Because the stride equals the kernel size, output windows
// do not overlap.
//
// Like Conv3D, the compute kernels dispatch through the conv-backend
// registry (see backend.go): the default gemm backend multiplies into a
// column matrix and scatters it (convtranspose3d_gemm.go), and the direct
// backend runs the original loop kernels in this file on the parallel
// worker pool with disjoint output partitions chosen so that every
// accumulation happens in the serial reference's order — direct results are
// bit-for-bit independent of the budget.
type ConvTranspose3D struct {
	workerBudget
	engineChoice

	InChannels  int
	OutChannels int
	Kernel      int // kernel edge == stride

	W *Param // [IC, OC, K, K, K]
	B *Param // [OC]

	input *tensor.Tensor
}

// NewConvTranspose3D creates a kernel-2 stride-2 transposed convolution.
func NewConvTranspose3D(name string, inC, outC, kernel int, rng *rand.Rand) *ConvTranspose3D {
	fanIn := inC * kernel * kernel * kernel
	std := math.Sqrt(2.0 / float64(fanIn))
	w := tensor.TruncatedNormal(rng, 0, std, inC, outC, kernel, kernel, kernel)
	b := tensor.New(outC)
	return &ConvTranspose3D{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		W:           NewParam(name+".w", w),
		B:           NewParam(name+".b", b),
	}
}

// Params returns the kernel and bias parameters.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }

// DropCaches implements CacheDropper: the retained input reference (one
// full activation tensor) is dropped. Backward requires a fresh Forward
// afterwards.
func (c *ConvTranspose3D) DropCaches() { c.input = nil }

// Forward upsamples x from [N, IC, D, H, W] to [N, OC, K·D, K·H, K·W] and
// caches x for Backward, dispatching through the backend registry (gemm by
// default).
func (c *ConvTranspose3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.input = x
	return c.apply(x, tensor.New)
}

// ForwardOwned is Forward with the output written into dst.
func (c *ConvTranspose3D) ForwardOwned(x *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	c.input = x
	return c.apply(x, dst.Shaped)
}

// apply runs the resolved backend's forward kernel into a tensor drawn from
// alloc, retaining nothing.
func (c *ConvTranspose3D) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvTranspose3D", x)
	k := c.Kernel
	out := alloc(n, c.OutChannels, d*k, h*k, w*k)
	ResolveBackend(c.engine, c.Spec()).TransposeForward(c, x, out)
	return out
}

// forwardDirectInto runs the direct forward kernel into a caller-provided
// output tensor (every element is written: bias seed, then accumulation),
// retaining nothing. Work is partitioned over (sample × output-channel)
// slabs; each slab owner initializes its bias plane and accumulates input
// channels in ascending order, exactly as the serial reference does.
func (c *ConvTranspose3D) forwardDirectInto(x, out *tensor.Tensor) {
	n, ic, d, h, w := check5D("ConvTranspose3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ic))
	}
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k

	xd := x.Data()
	outd := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k
	oc := c.OutChannels

	parallel.ForWorkers(c.workers, n*oc, 1, func(lo, hi int) {
		for slab := lo; slab < hi; slab++ {
			ni, oci := slab/oc, slab%oc
			oBase := slab * outCh
			bias := bd[oci]
			seg := outd[oBase : oBase+outCh]
			for i := range seg {
				seg[i] = bias
			}
			for icI := 0; icI < ic; icI++ {
				iBase := (ni*ic + icI) * inCh
				wBase := (icI*oc + oci) * kk
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						iRow := iBase + (z*h+y)*w
						for xx := 0; xx < w; xx++ {
							v := xd[iRow+xx]
							if v == 0 {
								continue
							}
							for kz := 0; kz < k; kz++ {
								oz := z*k + kz
								for ky := 0; ky < k; ky++ {
									oy := y*k + ky
									oRow := oBase + (oz*oh+oy)*ow + xx*k
									wRow := wBase + (kz*k+ky)*k
									for kx := 0; kx < k; kx++ {
										outd[oRow+kx] += v * wd[wRow+kx]
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

// Backward accumulates parameter gradients and returns dL/d(input). The
// engine-invariant bias pass runs first (biasGradPass, shared by every
// backend); the fused kernel- and input-gradient pass dispatches through
// the backend registry.
func (c *ConvTranspose3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, tensor.New)
}

// BackwardOwned is Backward with the input gradient written into dst.
func (c *ConvTranspose3D) BackwardOwned(gradOut *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	return c.backward(gradOut, dst.Shaped)
}

func (c *ConvTranspose3D) backward(gradOut *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	if c.input == nil {
		panic("nn: ConvTranspose3D.Backward called before Forward")
	}
	x := c.input
	n, _, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	gradIn := alloc(x.Shape()...)

	b := ResolveBackend(c.engine, c.Spec())
	c.biasGradPass(gradOut.Data(), n, d*k*h*k*w*k, c.workers)
	b.TransposeBackward(c, gradOut, gradIn)
	return gradIn
}

// backwardDirectInto is the direct fused kernel- and input-gradient pass,
// one owner per input channel — an input channel owns both its W gradient
// block [icI, :, :] and its input-gradient slabs across all samples (which
// it zeroes before accumulating), so the
// fused traversal of gradOut (the serial kernel's main cost saver) survives
// parallelization. Samples are visited in ascending order inside each
// owner, keeping every accumulation in the serial reference's order —
// results are bit-for-bit identical at any worker budget.
func (c *ConvTranspose3D) backwardDirectInto(gradOut, gradIn *tensor.Tensor) {
	x := c.input
	n, ic, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k
	oc := c.OutChannels

	parallel.ForWorkers(c.workers, ic, 1, func(lo, hi int) {
		for icI := lo; icI < hi; icI++ {
			for ni := 0; ni < n; ni++ {
				iBase := (ni*ic + icI) * inCh
				clear(gid[iBase : iBase+inCh])
				for oci := 0; oci < oc; oci++ {
					oBase := (ni*oc + oci) * outCh
					wBase := (icI*oc + oci) * kk
					for z := 0; z < d; z++ {
						for y := 0; y < h; y++ {
							iRow := iBase + (z*h+y)*w
							for xx := 0; xx < w; xx++ {
								v := xd[iRow+xx]
								var acc float32
								for kz := 0; kz < k; kz++ {
									oz := z*k + kz
									for ky := 0; ky < k; ky++ {
										oy := y*k + ky
										oRow := oBase + (oz*oh+oy)*ow + xx*k
										wRow := wBase + (kz*k+ky)*k
										for kx := 0; kx < k; kx++ {
											g := god[oRow+kx]
											acc += wd[wRow+kx] * g
											gwd[wRow+kx] += v * g
										}
									}
								}
								gid[iRow+xx] += acc
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
func (c *ConvTranspose3D) forwardSerial(x *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := check5D("ConvTranspose3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ic))
	}
	c.input = x
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	out := tensor.New(n, c.OutChannels, od, oh, ow)

	xd := x.Data()
	outd := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k

	// Initialize with bias.
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutChannels; oc++ {
			base := (ni*c.OutChannels + oc) * outCh
			bias := bd[oc]
			seg := outd[base : base+outCh]
			for i := range seg {
				seg[i] = bias
			}
		}
	}

	for ni := 0; ni < n; ni++ {
		for icI := 0; icI < ic; icI++ {
			iBase := (ni*ic + icI) * inCh
			for oc := 0; oc < c.OutChannels; oc++ {
				oBase := (ni*c.OutChannels + oc) * outCh
				wBase := (icI*c.OutChannels + oc) * kk
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						iRow := iBase + (z*h+y)*w
						for xx := 0; xx < w; xx++ {
							v := xd[iRow+xx]
							if v == 0 {
								continue
							}
							for kz := 0; kz < k; kz++ {
								oz := z*k + kz
								for ky := 0; ky < k; ky++ {
									oy := y*k + ky
									oRow := oBase + (oz*oh+oy)*ow + xx*k
									wRow := wBase + (kz*k+ky)*k
									for kx := 0; kx < k; kx++ {
										outd[oRow+kx] += v * wd[wRow+kx]
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// backwardSerial is the original fused single-threaded backward kernel, kept
// as the golden reference for the equality tests and benchmarks.
func (c *ConvTranspose3D) backwardSerial(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.input == nil {
		panic("nn: ConvTranspose3D.Backward called before Forward")
	}
	x := c.input
	n, ic, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	gradIn := tensor.New(x.Shape()...)

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()
	gbd := c.B.Grad.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k

	// Bias gradient: sum of gradOut per output channel.
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutChannels; oc++ {
			base := (ni*c.OutChannels + oc) * outCh
			var acc float32
			for _, g := range god[base : base+outCh] {
				acc += g
			}
			gbd[oc] += acc
		}
	}

	for ni := 0; ni < n; ni++ {
		for icI := 0; icI < ic; icI++ {
			iBase := (ni*ic + icI) * inCh
			for oc := 0; oc < c.OutChannels; oc++ {
				oBase := (ni*c.OutChannels + oc) * outCh
				wBase := (icI*c.OutChannels + oc) * kk
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						iRow := iBase + (z*h+y)*w
						for xx := 0; xx < w; xx++ {
							v := xd[iRow+xx]
							var acc float32
							for kz := 0; kz < k; kz++ {
								oz := z*k + kz
								for ky := 0; ky < k; ky++ {
									oy := y*k + ky
									oRow := oBase + (oz*oh+oy)*ow + xx*k
									wRow := wBase + (kz*k+ky)*k
									for kx := 0; kx < k; kx++ {
										g := god[oRow+kx]
										acc += wd[wRow+kx] * g
										gwd[wRow+kx] += v * g
									}
								}
							}
							gid[iRow+xx] += acc
						}
					}
				}
			}
		}
	}
	return gradIn
}
