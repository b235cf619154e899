package nn

import (
	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Inference fast path.
//
// Forward is the training forward: it retains whatever Backward needs — the
// convolution input, the ReLU output, x̂, the pooling argmax — normalizes
// with the batch statistics and hands out a fresh output tensor (or, through
// the ...Owned variants and the ConvBNReLU block, a buffer that lives across
// steps), because outputs live on as skip connections and loss inputs.
// Evaluation and serving run forward-only, at high call rates, on models
// that may be training at the same time, where none of that fits: retained
// activations are dead weight, fresh outputs churn the allocator, an owned
// buffer would be shared with the training step, and the batch statistics
// would make a sample's score depend on its neighbours.
//
// Infer, part of the Layer interface, is that forward. It normalizes with
// the running statistics, writes into tensors drawn from the tensor scratch
// pool, and neither reads nor writes any layer state but the parameters and
// running statistics. Where the two forwards compute the same function (all
// but BatchNorm and ConvBNReLU) Infer runs Forward's kernel behind another
// allocator, so the bits are equal (infer_test.go); ConvBNReLU's Infer
// carries the bits of the standalone layers' Infers chained
// (TestBlockMatchesChain). Callers recycle each consumed input as soon as
// the next layer has produced its output, so a steady-state inference step
// performs zero fresh scratch allocations (unet's TestInferScratchSteadyState,
// like the training-step test). The fused block's Infer is one convolution
// whose GEMM store adds the bias, normalizes and rectifies each element on
// its way out, so a body site costs one pool tensor and one write of it, not
// three.
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

// Infer normalizes x with the running statistics, caching nothing.
func (b *BatchNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, spatial := b.check("BatchNorm", x)
	out := tensor.NewScratch(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	parallel.ForWorkers(b.workers, c, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			mean, rstd := b.evalStats(ci)
			g, bt := gd[ci], bd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				xs, ys := xd[base:base+spatial], od[base:base+spatial]
				for i, v := range xs {
					ys[i] = bnAffine(g, bnNormalize(v, mean, rstd), bt)
				}
			}
		}
	})
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
