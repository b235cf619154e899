package nn

import (
	"math"

	"repro/internal/gemm"
	"repro/internal/parallel"
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
// Infer is the forward-only counterpart: it computes exactly the same values
// as an evaluation-mode Forward (bit for bit — each layer's Forward, Infer
// and ...Owned form are one kernel behind three allocators, see
// TestSequentialInferMatchesForward), but writes into tensors drawn from the
// tensor scratch pool and neither reads nor writes any layer state but the
// parameters and running statistics. Callers recycle each consumed input as
// soon as the next layer has produced its output, so a steady-state inference
// step performs zero fresh scratch allocations (asserted by
// TestSequentialInferScratchSteadyState, like the training-step test). The
// fused block's Infer is one convolution whose GEMM store adds the bias,
// normalizes and rectifies each element on its way out, so a body site costs
// one pool tensor and one write of it, not three.
//
// Calling Backward after Infer is invalid only in the sense that Infer is not
// a Forward: it leaves the layer's backward caches untouched (possibly stale
// from an earlier Forward, or still valid for a Backward yet to come).

// InferLayer is implemented by layers with a forward-only fast path: Infer
// returns a pool-backed output (recycle with tensor.Recycle) and retains no
// reference to x or the result.
type InferLayer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

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

// Infer computes max(x, α·x) without retaining the input for Backward.
func (r *LeakyReLU) Infer(x *tensor.Tensor) *tensor.Tensor { return r.apply(x, tensor.NewScratch) }

// Infer normalizes every (sample, channel) slice without retaining the
// normalized activations or inverse deviations for Backward. InstanceNorm
// has no running statistics, so this is the same computation as Forward in
// either mode — bit for bit, the arithmetic is shared.
func (n *InstanceNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	nb, c, d, h, w := check5D("InstanceNorm", x)
	if c != n.Channels {
		panic("nn: InstanceNorm channel mismatch")
	}
	spatial := d * h * w
	out := tensor.NewScratch(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	gd := n.Gamma.Value.Data()
	bd := n.Beta.Value.Data()
	parallel.ForWorkers(n.workers, nb*c, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			base := s * spatial
			var sum float64
			for _, v := range xd[base : base+spatial] {
				sum += float64(v)
			}
			mean := sum / float64(spatial)
			var varSum float64
			for _, v := range xd[base : base+spatial] {
				dv := float64(v) - mean
				varSum += dv * dv
			}
			rstd := 1 / math.Sqrt(varSum/float64(spatial)+n.Eps)
			g, bt := gd[s%c], bd[s%c]
			for i := base; i < base+spatial; i++ {
				xh := float32((float64(xd[i]) - mean) * rstd)
				od[i] = g*xh + bt
			}
		}
	})
	return out
}

// Infer computes the channel softmax without retaining the output for
// Backward.
func (s *ChannelSoftmax) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, d, h, w := check5D("ChannelSoftmax", x)
	out := tensor.NewScratch(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	spatial := d * h * w
	parallel.ForWorkers(s.workers, n*spatial, elemGrain/4, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			base := (j / spatial) * c * spatial
			v := j % spatial
			maxLogit := xd[base+v]
			for ci := 1; ci < c; ci++ {
				if l := xd[base+ci*spatial+v]; l > maxLogit {
					maxLogit = l
				}
			}
			var sum float64
			for ci := 0; ci < c; ci++ {
				e := math.Exp(float64(xd[base+ci*spatial+v] - maxLogit))
				od[base+ci*spatial+v] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for ci := 0; ci < c; ci++ {
				od[base+ci*spatial+v] *= inv
			}
		}
	})
	return out
}

// Infer downsamples x without recording the backward argmax.
func (m *MaxPool3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, od, oh, ow := m.outShape(x)
	out := tensor.NewScratch(n, c, od, oh, ow)
	m.pool(x, out, nil)
	return out
}

// Infer runs x through every layer's inference fast path, switching the
// container to evaluation mode first and recycling each intermediate
// activation as soon as the next layer has consumed it. Layers without an
// Infer method fall back to Forward (their output then stays off the pool
// and their backward caches go stale — do not call Backward afterwards).
// The returned tensor is pool-backed; the caller may tensor.Recycle it.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor {
	s.SetTraining(false)
	in := x
	for _, l := range s.Layers {
		var out *tensor.Tensor
		if il, ok := l.(InferLayer); ok {
			out = il.Infer(in)
		} else {
			out = l.Forward(in)
		}
		if in != x && in != out {
			tensor.Recycle(in)
		}
		in = out
	}
	return in
}
