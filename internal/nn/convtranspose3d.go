package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ConvTranspose3D is the paper's up-convolution: a transposed convolution
// with a 2x2x2 kernel and stride 2 in each dimension, exactly doubling the
// spatial extent. Because the stride equals the kernel size, output windows
// do not overlap, so every pass is a matrix multiply plus at most a pure copy
// out of column form (convtranspose3d_gemm.go) — bit-for-bit independent of
// the worker budget — and can write, and read its gradient from, the leading
// channels of a wider tensor.
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

// ForwardInto is Forward with the output written into the first OC channels
// of dst ([N, C ≥ OC, K·D, K·H, K·W]), and nothing else of dst.
func (c *ConvTranspose3D) ForwardInto(x, dst *tensor.Tensor) {
	c.input = x
	c.forwardGEMMInto(x, dst)
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
	return c.backward(gradOut, c.OutChannels, tensor.New)
}

// BackwardWindow is Backward with the output gradient read in place from the
// first OC channels of g ([N, C ≥ OC, …]), and the input gradient written
// into dst.
func (c *ConvTranspose3D) BackwardWindow(g *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	ch := windowChannels("ConvTranspose3D.BackwardWindow", g, c.OutChannels)
	return c.backward(g, ch, dst.Shaped)
}

// backward runs both passes on the first OC channels of g ([N, ch, …]).
func (c *ConvTranspose3D) backward(g *tensor.Tensor, ch int, alloc allocFunc) *tensor.Tensor {
	if c.input == nil {
		panic("nn: ConvTranspose3D.Backward called before Forward")
	}
	x := c.input
	n, _, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	checkGradShape("ConvTranspose3D.Backward", g, n, ch, d*k, h*k, w*k)
	gradIn := alloc(x.Shape()...)

	vol := d * k * h * k * w * k
	biasGrad(c.B.Grad.Data(), g.Data(), n, ch, vol, c.workers)
	c.backwardGEMMInto(g, gradIn)
	return gradIn
}

// windowChannels returns the channel count of t after checking that it holds
// at least oc channels.
func windowChannels(op string, t *tensor.Tensor, oc int) int {
	_, ch, _, _, _ := check5D(op, t)
	if oc > ch {
		panic(fmt.Sprintf("nn: %s needs %d channels, %v has %d", op, oc, t.Shape(), ch))
	}
	return ch
}
