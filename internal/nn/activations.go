package nn

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// elemGrain is the chunk size for parallel elementwise kernels: big enough
// to amortize chunk dispatch, small enough to balance load across workers.
const elemGrain = 16384

// expGrain is the chunk size for the sigmoid, whose math.Exp costs tens of
// times a ReLU's compare: at elemGrain the head's 8 192 training voxels
// (batch 2, 16³) would be a single chunk on one worker.
const expGrain = 2048

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

// DropCaches drops the retained output.
func (r *ReLU) DropCaches() { r.output = nil }

// Forward is ForwardInto a fresh tensor.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	return r.ForwardInto(x, tensor.New(x.Shape()...))
}

// ForwardInto writes max(0, x) into dst and retains it for Backward.
func (r *ReLU) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	r.output = r.InferInto(x, dst)
	return dst
}

// Backward is BackwardInto a fresh tensor.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return r.BackwardInto(gradOut, tensor.New(gradOut.Shape()...))
}

// BackwardInto writes into gradIn the gradient, zeroed where the input was
// non-positive.
func (r *ReLU) BackwardInto(gradOut, gradIn *tensor.Tensor) *tensor.Tensor {
	if r.output == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	checkGradShape("ReLU.Backward", gradOut, r.output.Shape()...)
	checkDst("ReLU.Backward", gradIn, gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	yd := r.output.Data()
	parallel.ForWorkers(r.workers, len(god), elemGrain, func(_, lo, hi int) {
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

// DropCaches drops the retained output.
func (s *Sigmoid) DropCaches() { s.output = nil }

// Forward is ForwardInto a fresh tensor.
func (s *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	return s.ForwardInto(x, tensor.New(x.Shape()...))
}

// ForwardInto writes 1/(1+exp(-x)) into dst and retains it for Backward.
func (s *Sigmoid) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	s.output = s.InferInto(x, dst)
	return dst
}

// Backward is BackwardInto a fresh tensor.
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return s.BackwardInto(gradOut, tensor.New(gradOut.Shape()...))
}

// BackwardInto writes the gradient into gradIn, using dσ/dx = σ(x)(1−σ(x)).
func (s *Sigmoid) BackwardInto(gradOut, gradIn *tensor.Tensor) *tensor.Tensor {
	if s.output == nil {
		panic("nn: Sigmoid.Backward called before Forward")
	}
	checkGradShape("Sigmoid.Backward", gradOut, s.output.Shape()...)
	checkDst("Sigmoid.Backward", gradIn, gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	od := s.output.Data()
	parallel.ForWorkers(s.workers, len(god), expGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			y := od[i]
			gid[i] = god[i] * y * (1 - y)
		}
	})
	return gradIn
}
