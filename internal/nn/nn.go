// Package nn implements the 3D convolutional neural-network layers needed by
// the paper's 3D U-Net: Conv3D, ConvTranspose3D, MaxPool3D, BatchNorm, ReLU
// and Sigmoid, each with a full backward pass, and ConvBNReLU, the network's
// body site as one fused block.
//
// Activations are 5-D tensors laid out channels-first as [N, C, D, H, W],
// matching the paper's "Channels First" data format. Layers cache whatever
// they need during Forward so that Backward can be called immediately after
// with the gradient of the loss w.r.t. the layer output.
//
// Each method has one behaviour; no mode switches between them. Forward is
// the training forward: BatchNorm normalizes with the batch statistics and
// updates its running estimates, and every layer caches what Backward needs.
// Infer is the forward that evaluation and serving run: BatchNorm normalizes
// with the running statistics and nothing is cached (infer.go).
//
// Each pass has one entry point, which writes into a tensor it is given:
// ForwardInto, BackwardInto and InferInto write every element of dst and
// return it. Forward, Backward and Infer are those passes into a fresh
// tensor.New — what the test oracles and one-off callers use; unet passes
// buffers it owns (tensor.Owned) and allocates nothing per step. No pass
// writes to its argument, save ConvBNReLU's Backward, which overwrites the
// gradient it is given and, like its Forward, returns a buffer the block
// owns (see block.go). The block, the pooling and the up-convolution run
// their ForwardInto and InferInto through ForwardHaloed and InferHaloed,
// which read and write activations held inside a zero border, where a 3³
// convolution reads them in place (halo.go); ForwardInto and InferInto pass
// them whole tensors. The 2×2×2 pooling runs in AVX2 where the CPU has it,
// eight windows a step, with or without argmax, bit for bit its Go loop.
//
// Scratch — halo copies, the flipped kernel, packed operands, partial sums —
// comes from the layer's tensor.Workspace, taken and given back within the
// pass. A layer built alone owns its workspace; unet.New points every layer
// of a network at the network's one (SetWorkspace), since its layers run one
// at a time. The convolutions' offset tables are layer fields, rebuilt per
// call. So a layer holds no scratch between calls, and once a workspace
// has seen a shape, passes at that shape take no fresh scratch.
//
// The convolution layers have one implementation each, lowered to blocked
// GEMMs from internal/gemm (conv3d_gemm.go, convtranspose3d_gemm.go); Conv3D
// packs its operands straight from the activation and never builds a patch
// matrix. Every layer is bit-for-bit independent of its worker budget; the
// convolutions match the single-threaded direct-loop reference kept in the
// tests within a documented ULP bound.
package nn

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Param is a trainable parameter: its value and the gradient accumulated by
// the most recent backward pass.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable computation. Forward is the training forward and
// must be called before Backward; Backward receives dL/d(output) and returns
// dL/d(input). Infer is the forward-only pass (infer.go): running
// statistics, no reference to x or the result retained. Each returns a
// fresh tensor.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Infer(x *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// WorkerSetter is implemented by layers whose kernels run on the parallel
// worker pool and accept a per-layer budget override. A budget of 0 (the
// zero value of every layer) means the package-wide parallel default.
type WorkerSetter interface {
	SetWorkers(workers int)
}

// workerBudget is embedded by compute layers to carry the per-layer worker
// budget. Kernels resolve it through parallel.Resolve at call time, so a
// zero budget tracks the global default dynamically.
type workerBudget struct {
	workers int
}

// SetWorkers sets the layer's worker budget; 0 restores the global default.
func (w *workerBudget) SetWorkers(workers int) { w.workers = workers }

// AuxStater is implemented by layers (and networks) carrying trained
// non-parameter state — e.g. BatchNorm running statistics — that a
// checkpoint must capture for Infer to reproduce. The
// returned slices alias the live state; loaders write into them in place.
type AuxStater interface {
	AuxState() map[string][]float64
}

// ParamCount sums the element counts of the given parameters.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// ZeroGrads clears the gradients of all given parameters.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

func check5D(op string, t *tensor.Tensor) (n, c, d, h, w int) {
	s := t.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("nn: %s expects a 5-D [N,C,D,H,W] tensor, got shape %v", op, s))
	}
	return s[0], s[1], s[2], s[3], s[4]
}

// checkGradShape panics, naming both shapes, unless gradOut has the shape of
// the output it is the gradient of.
func checkGradShape(op string, gradOut *tensor.Tensor, out ...int) {
	if !slices.Equal(gradOut.Shape(), out) {
		// Only a copy may escape, or every call would heap-allocate out.
		panic(fmt.Sprintf("nn: %s gradient shape %v does not match the output's %v", op, gradOut.Shape(), slices.Clone(out)))
	}
}

// checkDst panics, naming both shapes, unless dst has the shape a pass
// writes.
func checkDst(op string, dst *tensor.Tensor, want ...int) {
	if !slices.Equal(dst.Shape(), want) {
		panic(fmt.Sprintf("nn: %s destination shape %v, want %v", op, dst.Shape(), slices.Clone(want)))
	}
}

// forChannelQuads runs fn over channels [0, c) in groups of four, one group
// per parallel chunk: lanes holds the group's channels, the first live of
// them real. A last group of fewer than four repeats its first channel in
// the dead lanes, so a reduction steps four chains whatever c is; a caller
// reads back the live lanes only.
func forChannelQuads(workers, c int, fn func(lanes *[4]int, live int)) {
	parallel.ForWorkers(workers, c, 4, func(_, lo, hi int) {
		lanes := [4]int{lo, lo, lo, lo}
		for ci := lo + 1; ci < hi; ci++ {
			lanes[ci-lo] = ci
		}
		fn(&lanes, hi-lo)
	})
}

// planes returns the size-float planes lanes[j] of a channel-major buffer,
// counted from plane base: the channels of one sample when base is n·C.
func planes(data []float32, base, size int, lanes *[4]int) (p [4][]float32) {
	for j, ci := range lanes {
		p[j] = data[(base+ci)*size:][:size]
	}
	return p
}
