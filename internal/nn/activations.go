package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// elemGrain is the chunk size for parallel elementwise kernels: big enough
// to amortize chunk dispatch, small enough to balance load across workers.
const elemGrain = 16384

// ReLU is the rectified linear unit used after every batch-normalized
// convolution in the paper's U-Net.
type ReLU struct {
	workerBudget

	output *tensor.Tensor // retained for Backward: the gradient passes where it is positive
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params returns nil: ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

// DropCaches implements CacheDropper: the retained output is dropped.
func (r *ReLU) DropCaches() { r.output = nil }

// Forward computes max(0, x) and retains the output for Backward.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.output = r.apply(x, tensor.New)
	return r.output
}

// apply writes max(0, x) over every element of a tensor drawn from alloc.
func (r *ReLU) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	out := alloc(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(r.workers, len(xd), elemGrain, func(lo, hi int) {
		xs, ys := xd[lo:hi], od[lo:hi]
		for i, v := range xs {
			ys[i] = relu(v)
		}
	})
	return out
}

// Backward zeroes gradients where the input was non-positive.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.output == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	checkGradShape("ReLU.Backward", gradOut, r.output.Shape()...)
	gradIn := tensor.New(gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	yd := r.output.Data()
	parallel.ForWorkers(r.workers, len(god), elemGrain, func(lo, hi int) {
		gs, ys, ds := god[lo:hi], yd[lo:hi], gid[lo:hi]
		for i, g := range gs {
			ds[i] = gate(ys[i], g)
		}
	})
	return gradIn
}

// Sigmoid is the final activation producing per-voxel tumour probabilities.
type Sigmoid struct {
	workerBudget

	output *tensor.Tensor
}

// NewSigmoid creates a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Params returns nil: sigmoid has no trainable parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// DropCaches implements CacheDropper: the retained output is dropped.
func (s *Sigmoid) DropCaches() { s.output = nil }

// Forward computes 1/(1+exp(-x)) and caches the output.
func (s *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	s.output = s.apply(x, tensor.New)
	return s.output
}

// apply writes the sigmoid of x over every element of a tensor drawn from
// alloc.
func (s *Sigmoid) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	out := alloc(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(s.workers, len(xd), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = float32(1.0 / (1.0 + math.Exp(-float64(xd[i]))))
		}
	})
	return out
}

// Backward uses dσ/dx = σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return s.backward(gradOut, tensor.New)
}

// BackwardOwned is Backward with the input gradient written into dst.
func (s *Sigmoid) BackwardOwned(gradOut *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	return s.backward(gradOut, dst.Shaped)
}

func (s *Sigmoid) backward(gradOut *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	if s.output == nil {
		panic("nn: Sigmoid.Backward called before Forward")
	}
	checkGradShape("Sigmoid.Backward", gradOut, s.output.Shape()...)
	gradIn := alloc(gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	od := s.output.Data()
	parallel.ForWorkers(s.workers, len(god), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y := od[i]
			gid[i] = god[i] * y * (1 - y)
		}
	})
	return gradIn
}
