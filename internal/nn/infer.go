package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Inference fast path.
//
// Training forwards retain whatever Backward needs — the convolution input,
// the ReLU mask, the pooling argmax — and allocate a fresh output tensor per
// layer, because outputs live on as skip connections and loss inputs. A
// serving process runs forward-only at high call rates, where both habits
// hurt: the retained activations are dead weight and the per-layer outputs
// churn the allocator.
//
// Infer is the forward-only counterpart: it computes exactly the same values
// as an evaluation-mode Forward (bit for bit — the kernels are shared, see
// TestSequentialInferMatchesForward), but writes into tensors drawn from the
// tensor scratch pool and retains no state. Callers recycle each consumed
// input as soon as the next layer has produced its output, so a steady-state
// inference step performs zero fresh scratch allocations (asserted by
// TestSequentialInferScratchSteadyState, like the training-step test).
//
// Calling Backward after Infer is invalid: Infer leaves the layer's backward
// caches untouched (possibly stale from an earlier Forward).

// InferLayer is implemented by layers with a forward-only fast path: Infer
// returns a pool-backed output (recycle with tensor.Recycle) and retains no
// reference to x or the result.
type InferLayer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// Infer computes the convolution of x without caching it for Backward; the
// result is pool-backed and bit-for-bit identical to Forward's (the backend
// runs the same forward kernel).
func (c *Conv3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, _, d, h, w := check5D("Conv3D", x)
	out := tensor.NewScratch(n, c.OutChannels, d, h, w)
	ResolveBackend(c.engine, c.Spec()).ConvForward(c, x, out)
	return out
}

// Infer upsamples x without caching it for Backward; the result is
// pool-backed and bit-for-bit identical to Forward's.
func (c *ConvTranspose3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvTranspose3D", x)
	k := c.Kernel
	out := tensor.NewScratch(n, c.OutChannels, d*k, h*k, w*k)
	ResolveBackend(c.engine, c.Spec()).TransposeForward(c, x, out)
	return out
}

// Infer normalizes x with the running statistics — the evaluation-mode
// forward regardless of the layer's training flag — caching nothing.
func (b *BatchNorm) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewScratch(x.Shape()...)
	b.evalInto(x, out)
	return out
}

// Infer computes max(0, x) without recording the backward mask.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewScratch(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(r.workers, len(xd), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := xd[i]; v > 0 {
				od[i] = v
			} else {
				od[i] = 0
			}
		}
	})
	return out
}

// Infer computes the sigmoid without caching the output for Backward.
func (s *Sigmoid) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewScratch(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(s.workers, len(xd), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = float32(1.0 / (1.0 + math.Exp(-float64(xd[i]))))
		}
	})
	return out
}

// Infer computes max(x, α·x) without recording the backward sign mask.
func (r *LeakyReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewScratch(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(r.workers, len(xd), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := xd[i]; v > 0 {
				od[i] = v
			} else {
				od[i] = r.Alpha * v
			}
		}
	})
	return out
}

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
	n, c, d, h, w := check5D("MaxPool3D", x)
	s := m.Size
	if d%s != 0 || h%s != 0 || w%s != 0 {
		panic("nn: MaxPool3D size does not divide volume")
	}
	od, oh, ow := d/s, h/s, w/s
	out := tensor.NewScratch(n, c, od, oh, ow)
	xd := x.Data()
	outd := out.Data()
	outCh := od * oh * ow
	parallel.ForWorkers(m.workers, n*c, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			base := blk * d * h * w
			oi := blk * outCh
			for z := 0; z < od; z++ {
				for y := 0; y < oh; y++ {
					for xx := 0; xx < ow; xx++ {
						best := xd[base+(z*s*h+y*s)*w+xx*s]
						for kz := 0; kz < s; kz++ {
							for ky := 0; ky < s; ky++ {
								row := base + ((z*s+kz)*h+y*s+ky)*w + xx*s
								for kx := 0; kx < s; kx++ {
									if v := xd[row+kx]; v > best {
										best = v
									}
								}
							}
						}
						outd[oi] = best
						oi++
					}
				}
			}
		}
	})
	return out
}

// ConcatChannelsScratch is ConcatChannels with a pool-backed result, for the
// inference fast path.
func ConcatChannelsScratch(a, b *tensor.Tensor) *tensor.Tensor {
	na, ca, da, ha, wa := check5D("ConcatChannels", a)
	nb, cb, db, hb, wb := check5D("ConcatChannels", b)
	if na != nb || da != db || ha != hb || wa != wb {
		panic("nn: ConcatChannels spatial/batch mismatch")
	}
	out := tensor.NewScratch(na, ca+cb, da, ha, wa)
	spatial := da * ha * wa
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for ni := 0; ni < na; ni++ {
		dst := ni * (ca + cb) * spatial
		srcA := ni * ca * spatial
		copy(od[dst:dst+ca*spatial], ad[srcA:srcA+ca*spatial])
		srcB := ni * cb * spatial
		copy(od[dst+ca*spatial:dst+(ca+cb)*spatial], bd[srcB:srcB+cb*spatial])
	}
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
