package nn

import (
	"math"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Inference.
//
// Forward is the training forward: it retains whatever Backward needs — the
// convolution input, the ReLU output (or, in the fused block, x̂, from which
// its backward rebuilds the ReLU's mask), the pooling argmax — and
// normalizes with the batch statistics. Evaluation and serving run
// forward-only, at high call rates, on models that may be mid-way through a
// training step, where none of that fits: retained activations are dead
// weight, overwriting Backward's caches would corrupt the step, and the
// batch statistics would make a sample's score depend on its neighbours.
//
// Infer, part of the Layer interface, is that forward, and InferInto its
// one entry point. It normalizes with the running statistics and leaves
// every cache Backward reads alone. Where the two forwards compute the same
// function (all but BatchNorm and ConvBNReLU) InferInto is the kernel
// ForwardInto runs, so the bits are equal (infer_test.go); ConvBNReLU's
// carries the bits of the standalone layers' Infers chained
// (TestBlockMatchesChain). The fused block's InferInto is one convolution
// whose GEMM store adds the bias, normalizes and rectifies each element on
// its way out, so a body site costs one write of its output, not three.
//
// Calling Backward after Infer is invalid only in the sense that Infer is not
// a Forward: it leaves the layer's backward caches untouched (possibly stale
// from an earlier Forward, or still valid for a Backward yet to come).

// Infer is InferInto a fresh tensor.
func (c *Conv3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	return c.InferInto(x, tensor.New(c.outShape(x)...))
}

// InferInto is ForwardInto without caching x for Backward.
func (c *Conv3D) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	c.forward(Whole(x), Whole(dst), gemm.Norm{})
	return dst
}

// Infer is InferInto a fresh tensor.
func (c *ConvTranspose3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvTranspose3D", x)
	k := c.Kernel
	return c.InferInto(x, tensor.New(n, c.OutChannels, d*k, h*k, w*k))
}

// Infer is InferInto a fresh tensor.
func (b *BatchNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	return b.InferInto(x, tensor.New(x.Shape()...))
}

// InferInto normalizes x with the running statistics into out, caching
// nothing.
func (b *BatchNorm) InferInto(x, out *tensor.Tensor) *tensor.Tensor {
	n, c, spatial := b.check("BatchNorm", x)
	checkDst("BatchNorm", out, x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	parallel.ForWorkers(b.workers, c, 1, func(_, lo, hi int) {
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

// Infer is InferInto a fresh tensor.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	return r.InferInto(x, tensor.New(x.Shape()...))
}

// InferInto writes max(0, x) into dst without retaining it for Backward.
func (r *ReLU) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	checkDst("ReLU", dst, x.Shape()...)
	xd, od := x.Data(), dst.Data()
	parallel.ForWorkers(r.workers, len(xd), elemGrain, func(_, lo, hi int) {
		xs, ys := xd[lo:hi], od[lo:hi]
		for i, v := range xs {
			ys[i] = relu(v)
		}
	})
	return dst
}

// Infer is InferInto a fresh tensor.
func (s *Sigmoid) Infer(x *tensor.Tensor) *tensor.Tensor {
	return s.InferInto(x, tensor.New(x.Shape()...))
}

// InferInto writes the sigmoid of x into dst without retaining it for
// Backward.
func (s *Sigmoid) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	checkDst("Sigmoid", dst, x.Shape()...)
	xd, od := x.Data(), dst.Data()
	parallel.ForWorkers(s.workers, len(xd), expGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = float32(1.0 / (1.0 + math.Exp(-float64(xd[i]))))
		}
	})
	return dst
}

// Infer is InferInto a fresh tensor.
func (m *MaxPool3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, od, oh, ow := m.outShape(x)
	return m.InferInto(x, tensor.New(n, c, od, oh, ow))
}

// InferInto downsamples x into dst without recording the backward argmax.
func (m *MaxPool3D) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	m.pool(Whole(x), Whole(dst), nil)
	return dst
}

// InferHaloed is InferInto between haloed activations: it reads x's
// interiors and writes dst's, and nothing else of either buffer.
func (m *MaxPool3D) InferHaloed(x, dst Haloed) { m.pool(x, dst, nil) }
