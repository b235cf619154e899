package nn

import (
	"repro/internal/gemm"
	"repro/internal/tensor"
)

// Inference fast path.
//
// Training forwards retain whatever Backward needs — the convolution input,
// the ReLU output, x̂, the pooling argmax — and hand out a fresh output tensor
// (or, through the ...Owned variants and the ConvBNReLU block, a buffer that
// lives across steps), because outputs live on as skip connections and loss
// inputs. A serving process runs forward-only at high call rates, on models
// that may be training at the same time, where neither fits: retained
// activations are dead weight, fresh outputs churn the allocator, and an
// owned buffer would be shared with the training step.
//
// Infer, part of the Layer interface, is the forward-only counterpart: it
// computes exactly the same values as an evaluation-mode Forward (bit for
// bit — each layer's Forward, Infer and ...Owned form are one kernel behind
// three allocators, see TestSequentialInferMatchesForward), but writes into
// tensors drawn from the tensor scratch pool and neither reads nor writes
// any layer state but the parameters and running statistics. Callers
// recycle each consumed input as soon as the next layer has produced its
// output, so a steady-state inference step performs zero fresh scratch
// allocations (asserted by TestSequentialInferScratchSteadyState, like the
// training-step test). The fused block's Infer is one convolution whose
// GEMM store adds the bias, normalizes and rectifies each element on its way
// out, so a body site costs one pool tensor and one write of it, not three.
//
// Calling Backward after Infer is invalid only in the sense that Infer is not
// a Forward: it leaves the layer's backward caches untouched (possibly stale
// from an earlier Forward, or still valid for a Backward yet to come).

// Infer computes the convolution of x without caching it for Backward; the
// result is pool-backed and bit-for-bit identical to Forward's (one forward
// kernel serves both).
func (c *Conv3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	return c.apply(x, tensor.NewScratch, gemm.Norm{})
}

// Infer upsamples x without caching it for Backward; the result is
// pool-backed and bit-for-bit identical to Forward's.
func (c *ConvTranspose3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	return c.apply(x, tensor.NewScratch)
}

// InferInto is ForwardInto without caching x for Backward.
func (c *ConvTranspose3D) InferInto(x, dst *tensor.Tensor) { c.forwardGEMMInto(x, dst) }

// Infer normalizes x with the running statistics — the evaluation-mode
// forward regardless of the layer's training flag — caching nothing.
func (b *BatchNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewScratch(x.Shape()...)
	b.evalInto(x, out)
	return out
}

// Infer computes max(0, x) without retaining the output for Backward.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor { return r.apply(x, tensor.NewScratch) }

// Infer computes the sigmoid without caching the output for Backward.
func (s *Sigmoid) Infer(x *tensor.Tensor) *tensor.Tensor { return s.apply(x, tensor.NewScratch) }

// Infer downsamples x without recording the backward argmax.
func (m *MaxPool3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, od, oh, ow := m.outShape(x)
	out := tensor.NewScratch(n, c, od, oh, ow)
	m.pool(x, out, nil)
	return out
}

// Infer runs x through every layer's inference fast path, switching the
// container to evaluation mode first and recycling each intermediate
// activation as soon as the next layer has consumed it. The returned tensor
// is pool-backed; the caller may tensor.Recycle it.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor {
	s.SetTraining(false)
	in := x
	for _, l := range s.Layers {
		out := l.Infer(in)
		if in != x {
			tensor.Recycle(in)
		}
		in = out
	}
	return in
}
