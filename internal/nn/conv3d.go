package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// Conv3D is a 3-D convolution with stride 1 and "same" zero padding, the
// building block of the paper's 3D U-Net (3x3x3 body convolutions and the
// 1x1x1 sigmoid head).
//
// Every pass is a blocked matrix multiply against a patch matrix that is
// never built (conv3d_gemm.go): the forward pass — Forward, Infer and
// ConvBNReLU's Infer with its epilogue alike — and the input gradient are
// one routine, the kernel gradient reads the transpose in place from a
// channels-last copy, and the bias gradient is a per-channel sum. All of
// them are bit-for-bit independent of the worker budget, and they match the
// single-threaded direct-loop reference the tests keep within the ULP bounds
// TestConvParity asserts.
type Conv3D struct {
	workerBudget

	InChannels  int
	OutChannels int
	Kernel      int // cubic kernel edge; must be odd for "same" padding

	W *Param // [OC, IC, K, K, K]
	B *Param // [OC]

	input Haloed // cached for backward

	ws      *tensor.Workspace // scratch of every pass: its own, or its network's
	tables  []int             // offset tables of the running pass
	scatter []int             // ... and of its destination, where that has a border

	// The patch matrices of the last geometry the forward pass and the
	// input gradient each read: their tables, face classes included, are
	// built once per geometry rather than once per call.
	fwdPatch, gradPatch patchCache
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
		ws:          new(tensor.Workspace),
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// SetWorkspace points the layer's scratch at ws, shared with layers that
// never run at the same time as this one (unet.New shares one per network).
func (c *Conv3D) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

// DropCaches drops the retained input. A Backward without an intervening
// Forward is invalid after this call, as it is before any Forward.
func (c *Conv3D) DropCaches() { c.input = Haloed{} }

// Forward is ForwardInto a fresh tensor.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardInto(x, tensor.New(c.outShape(x)...))
}

// ForwardInto computes the convolution of x ([N, IC, D, H, W]) into dst
// ([N, OC, D, H, W]) and caches x for Backward.
func (c *Conv3D) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	return c.forwardTrain(Whole(x), dst)
}

// forwardTrain is ForwardInto from a haloed x, which is read where it lies
// when its border is the halo, and which Backward reads again.
func (c *Conv3D) forwardTrain(x Haloed, dst *tensor.Tensor) *tensor.Tensor {
	c.forward(x, Whole(dst), gemm.Norm{})
	c.input = x
	return dst
}

// outShape is the output shape for input x.
func (c *Conv3D) outShape(x *tensor.Tensor) []int {
	n, _, d, h, w := check5D("Conv3D", x)
	return []int{n, c.OutChannels, d, h, w}
}

// Backward is BackwardInto a fresh tensor.
func (c *Conv3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := c.cachedInput().shape("Conv3D.Backward")
	return c.BackwardInto(gradOut, tensor.New(n, ic, d, h, w))
}

// BackwardInto accumulates the kernel and bias gradients and writes
// dL/d(input) into dst; a nil dst skips the input-gradient pass.
func (c *Conv3D) BackwardInto(gradOut, dst *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, Whole(gradOut), dst)
}

// backward is BackwardInto with the input gradient's pass reading the
// output gradient from g: gradOut itself, or a copy of it inside the halo,
// which is read where it lies.
func (c *Conv3D) backward(gradOut *tensor.Tensor, g Haloed, dst *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := c.cachedInput().shape("Conv3D.Backward")
	checkGradShape("Conv3D.Backward", gradOut, n, c.OutChannels, d, h, w)

	biasGrad(c.B.Grad.Data(), gradOut.Data(), n, c.OutChannels, d*h*w, c.workers)
	c.weightGradGEMM(gradOut)
	if dst != nil {
		checkDst("Conv3D.Backward", dst, n, ic, d, h, w)
		c.inputGradGEMM(g, dst)
	}
	return dst
}

// cachedInput is the input of the last Forward.
func (c *Conv3D) cachedInput() Haloed {
	if c.input.Buf == nil {
		panic("nn: Conv3D.Backward called before Forward")
	}
	return c.input
}

// biasGrad accumulates the bias gradient of a convolution — the sum of the
// first len(gb) channels of god ([n, ch, chStride]), per channel — onto gb:
// per sample a float32 sub-total from +0 in element order, added onto the
// channel's gradient with samples ascending, which is the serial reference's
// order at any worker budget. Four channels' chains are stepped together.
func biasGrad(gb, god []float32, n, ch, chStride, workers int) {
	forChannelQuads(workers, len(gb), func(lanes *[4]int, live int) {
		for ni := 0; ni < n; ni++ {
			p := planes(god, ni*ch, chStride, lanes)
			p0 := p[0]
			p1, p2, p3 := p[1][:len(p0)], p[2][:len(p0)], p[3][:len(p0)]
			var s0, s1, s2, s3 float32
			for i, g := range p0 {
				s0 += g
				s1 += p1[i]
				s2 += p2[i]
				s3 += p3[i]
			}
			sums := [4]float32{s0, s1, s2, s3}
			for j, ci := range lanes[:live] {
				gb[ci] += sums[j]
			}
		}
	})
}
