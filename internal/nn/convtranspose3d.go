package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ConvTranspose3D is the paper's up-convolution: a transposed convolution
// with a 2x2x2 kernel and stride 2 in each dimension, exactly doubling the
// spatial extent. Because the stride equals the kernel size, output windows
// do not overlap, so every pass is a matrix multiply plus a pure copy into or
// out of column form (convtranspose3d_gemm.go) — bit-for-bit independent of
// the worker budget.
type ConvTranspose3D struct {
	workerBudget

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
// caches x for Backward.
func (c *ConvTranspose3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.input = x
	return c.apply(x, tensor.New)
}

// ForwardOwned is Forward with the output written into dst.
func (c *ConvTranspose3D) ForwardOwned(x *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	c.input = x
	return c.apply(x, dst.Shaped)
}

// apply runs the forward kernel into a tensor drawn from alloc, retaining
// nothing.
func (c *ConvTranspose3D) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvTranspose3D", x)
	k := c.Kernel
	out := alloc(n, c.OutChannels, d*k, h*k, w*k)
	c.forwardGEMMInto(x, out)
	return out
}

// Backward accumulates parameter gradients and returns dL/d(input): the bias
// pass first, then the fused kernel- and input-gradient pass.
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
	checkGradShape("ConvTranspose3D.Backward", gradOut, n, c.OutChannels, d*k, h*k, w*k)
	gradIn := alloc(x.Shape()...)

	biasGrad(c.B.Grad.Data(), gradOut.Data(), n, d*k*h*k*w*k, c.workers)
	c.backwardGEMMInto(gradOut, gradIn)
	return gradIn
}
