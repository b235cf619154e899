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

	ws     *tensor.Workspace // scratch of every pass: its own, or its network's
	tables []int             // offset tables of the running pass
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
		ws:          new(tensor.Workspace),
	}
}

// Params returns the kernel and bias parameters.
func (c *ConvTranspose3D) Params() []*Param { return []*Param{c.W, c.B} }

// SetWorkspace points the layer's scratch at ws, shared with layers that
// never run at the same time as this one (unet.New shares one per network).
func (c *ConvTranspose3D) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

// DropCaches drops the retained input reference (one full activation
// tensor). Backward requires a fresh Forward afterwards.
func (c *ConvTranspose3D) DropCaches() { c.input = nil }

// Forward is ForwardInto a fresh tensor.
func (c *ConvTranspose3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvTranspose3D", x)
	k := c.Kernel
	return c.ForwardInto(x, tensor.New(n, c.OutChannels, d*k, h*k, w*k))
}

// ForwardInto upsamples x from [N, IC, D, H, W] into the first OC channels
// of dst ([N, C ≥ OC, K·D, K·H, K·W]), and nothing else of dst, and caches x
// for Backward.
func (c *ConvTranspose3D) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	c.ForwardHaloed(x, Haloed{Buf: dst, C: c.OutChannels})
	return dst
}

// ForwardHaloed is ForwardInto into the interiors of a haloed activation of
// OC channels, and nothing else of its buffer.
func (c *ConvTranspose3D) ForwardHaloed(x *tensor.Tensor, dst Haloed) {
	c.InferHaloed(x, dst)
	c.input = x
}

// Backward is BackwardInto a fresh tensor.
func (c *ConvTranspose3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.BackwardInto(gradOut, tensor.New(c.cachedInput().Shape()...))
}

// BackwardInto accumulates the parameter gradients and writes dL/d(input)
// into dst, reading the output gradient in place from the first OC channels
// of g ([N, C ≥ OC, …]): the bias pass first, then the fused kernel- and
// input-gradient pass.
func (c *ConvTranspose3D) BackwardInto(g, dst *tensor.Tensor) *tensor.Tensor {
	x := c.cachedInput()
	n, _, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	ch := windowChannels("ConvTranspose3D.Backward", g, c.OutChannels)
	checkGradShape("ConvTranspose3D.Backward", g, n, ch, d*k, h*k, w*k)
	checkDst("ConvTranspose3D.Backward", dst, x.Shape()...)

	vol := d * k * h * k * w * k
	biasGrad(c.B.Grad.Data(), g.Data(), n, ch, vol, c.workers)
	c.backwardGEMMInto(g, dst)
	return dst
}

// cachedInput is the input of the last Forward.
func (c *ConvTranspose3D) cachedInput() *tensor.Tensor {
	if c.input == nil {
		panic("nn: ConvTranspose3D.Backward called before Forward")
	}
	return c.input
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
