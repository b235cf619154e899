package nn

import (
	"math"
	"sync"

	"repro/internal/gemm"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// BatchNorm normalizes each channel over the batch and spatial dimensions,
// as the paper applies before each ReLU. In training mode it uses batch
// statistics and updates running estimates; in evaluation mode it uses the
// running estimates.
//
// Forward and Backward parallelize over channels: each channel's statistics,
// running estimates and output plane belong to exactly one worker, so the
// float64 accumulation order per channel is unchanged from the serial code.
type BatchNorm struct {
	workerBudget

	name string

	Channels int
	Eps      float64
	Momentum float64 // running-stat update rate

	Gamma *Param // scale, [C]
	Beta  *Param // shift, [C]

	RunningMean []float64
	RunningVar  []float64

	training bool

	// Cached by a training-mode Forward for Backward.
	xhat *tensor.Tensor
	mean []float64
	rstd []float64 // 1/sqrt(var+eps)
}

// NewBatchNorm creates a batch-normalization layer for c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{
		name:        name,
		Channels:    c,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       NewParam(name+".gamma", tensor.Ones(c)),
		Beta:        NewParam(name+".beta", tensor.New(c)),
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
		training:    true,
	}
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Params returns gamma and beta.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// AuxState exposes the running statistics — trained state that is not a
// parameter but must survive a checkpoint for evaluation-mode forwards to
// reproduce. The returned slices alias the layer's state: checkpoint
// loading writes into them in place.
func (b *BatchNorm) AuxState() map[string][]float64 {
	return map[string][]float64{
		b.name + ".running_mean": b.RunningMean,
		b.name + ".running_var":  b.RunningVar,
	}
}

// SetTraining toggles batch-statistics (true) vs running-statistics (false).
func (b *BatchNorm) SetTraining(training bool) { b.training = training }

// DropCaches implements CacheDropper: the retained x̂ is dropped. Backward
// requires a fresh training-mode Forward afterwards.
func (b *BatchNorm) DropCaches() { b.xhat = nil }

// Forward normalizes x per channel.
func (b *BatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	if !b.training {
		b.evalInto(x, out)
		return out
	}
	n, c, spatial := b.check("BatchNorm", x)
	b.xhat = tensor.New(x.Shape()...)
	xd, od, xh := x.Data(), out.Data(), b.xhat.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	b.sizeStats()
	parallel.ForWorkers(b.workers, c, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			mean, rstd := b.trainStats(xd, n, spatial, ci)
			g, bt := gd[ci], bd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				xs, hs, ys := xd[base:base+spatial], xh[base:base+spatial], od[base:base+spatial]
				for i, v := range xs {
					hs[i] = bnNormalize(v, mean, rstd)
					ys[i] = bnAffine(g, hs[i], bt)
				}
			}
		}
	})
	return out
}

// check validates a [N, C, D, H, W] activation against the layer and returns
// its batch size, channel count and per-channel volume.
func (b *BatchNorm) check(op string, x *tensor.Tensor) (n, c, spatial int) {
	n, c, d, h, w := check5D(op, x)
	if c != b.Channels {
		panic("nn: BatchNorm channel mismatch")
	}
	return n, c, d * h * w
}

// sizeStats makes room for the per-channel batch statistics.
func (b *BatchNorm) sizeStats() {
	if len(b.mean) != b.Channels {
		b.mean = make([]float64, b.Channels)
		b.rstd = make([]float64, b.Channels)
	}
}

// trainStats computes the batch statistics of channel ci of xd ([n, C,
// spatial]) in two float64 passes, samples ascending, records them for
// Backward, folds them into the running estimates and returns the mean and
// 1/sqrt(var+eps). Each channel belongs to one caller at a time.
func (b *BatchNorm) trainStats(xd []float32, n, spatial, ci int) (mean, rstd float64) {
	c := b.Channels
	m := float64(n * spatial)
	var sum float64
	for ni := 0; ni < n; ni++ {
		base := (ni*c + ci) * spatial
		for _, v := range xd[base : base+spatial] {
			sum += float64(v)
		}
	}
	mean = sum / m
	var varSum float64
	for ni := 0; ni < n; ni++ {
		base := (ni*c + ci) * spatial
		for _, v := range xd[base : base+spatial] {
			dv := float64(v) - mean
			varSum += dv * dv
		}
	}
	variance := varSum / m
	rstd = 1.0 / math.Sqrt(variance+b.Eps)
	b.mean[ci] = mean
	b.rstd[ci] = rstd
	b.RunningMean[ci] = (1-b.Momentum)*b.RunningMean[ci] + b.Momentum*mean
	b.RunningVar[ci] = (1-b.Momentum)*b.RunningVar[ci] + b.Momentum*variance
	return mean, rstd
}

// evalStats returns channel ci's running mean and 1/sqrt(running var+eps).
func (b *BatchNorm) evalStats(ci int) (mean, rstd float64) {
	return b.RunningMean[ci], 1.0 / math.Sqrt(b.RunningVar[ci]+b.Eps)
}

// rstdTables recycles the per-call 1/σ tables of evalNorm, so a steady-state
// evaluation-mode block allocates none.
var rstdTables = sync.Pool{New: func() any { return new([]float64) }}

// evalNorm is the evaluation-mode normalization as a GEMM epilogue: the
// running mean, 1/sqrt(running var+eps) written into *rstd (grown to fit),
// and the live γ and β — the arithmetic of evalInto followed by ReLU.
func (b *BatchNorm) evalNorm(rstd *[]float64) gemm.Norm {
	if cap(*rstd) < b.Channels {
		*rstd = make([]float64, b.Channels)
	}
	r := (*rstd)[:b.Channels]
	for ci := range r {
		_, r[ci] = b.evalStats(ci)
	}
	return gemm.Norm{Mean: b.RunningMean, Rstd: r, Gamma: b.Gamma.Value.Data(), Beta: b.Beta.Value.Data()}
}

// evalInto normalizes x with the running statistics into a caller-provided
// output tensor (every element is written), retaining nothing — the shared
// body of the evaluation-mode forward and the inference fast path.
func (b *BatchNorm) evalInto(x, out *tensor.Tensor) {
	n, c, spatial := b.check("BatchNorm", x)
	xd := x.Data()
	od := out.Data()
	gd := b.Gamma.Value.Data()
	bd := b.Beta.Value.Data()
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
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward called before Forward in training mode")
	}
	n, c, spatial := b.check("BatchNorm.Backward", gradOut)
	m := float64(n * spatial)
	gradIn := tensor.New(gradOut.Shape()...)

	god := gradOut.Data()
	gid := gradIn.Data()
	xh := b.xhat.Data()

	parallel.ForWorkers(b.workers, c, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			var sumDy, sumDyXhat float64
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				gs, hs := god[base:base+spatial], xh[base:base+spatial]
				for i, g := range gs {
					sumDy, sumDyXhat = bnReduce(sumDy, sumDyXhat, float64(g), hs[i])
				}
			}
			k := b.channelGrads(ci, sumDy, sumDyXhat, m)
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				gs, hs, ds := god[base:base+spatial], xh[base:base+spatial], gid[base:base+spatial]
				for i, g := range gs {
					ds[i] = bnInputGrad(k, m, float64(g), sumDy, hs[i], sumDyXhat)
				}
			}
		}
	})
	return gradIn
}

// channelGrads accumulates channel ci's γ and β gradients from its two
// reductions over the m elements of the channel and returns the input
// gradient's scale k = γ·rstd/m.
func (b *BatchNorm) channelGrads(ci int, sumDy, sumDyXhat, m float64) float64 {
	b.Gamma.Grad.Data()[ci] += float32(sumDyXhat)
	b.Beta.Grad.Data()[ci] += float32(sumDy)
	return float64(b.Gamma.Value.Data()[ci]) * b.rstd[ci] / m
}
