package nn

import (
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// LeakyReLU is the leaky rectifier max(x, α·x), a common U-Net variant
// activation (e.g. nnU-Net uses α = 0.01).
type LeakyReLU struct {
	workerBudget

	Alpha float32
	input *tensor.Tensor // retained for Backward (its sign picks the slope, whatever α's)
}

// NewLeakyReLU returns a leaky rectifier with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: float32(alpha)} }

// Params returns nil: the activation has no trainable parameters.
func (r *LeakyReLU) Params() []*Param { return nil }

// Forward computes the activation and retains the input for Backward.
func (r *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.input = x
	return r.apply(x, tensor.New)
}

// apply writes the activation of x over every element of a tensor drawn from
// alloc.
func (r *LeakyReLU) apply(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	out := alloc(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	parallel.ForWorkers(r.workers, len(xd), elemGrain, func(lo, hi int) {
		xs, ys := xd[lo:hi], od[lo:hi]
		for i, v := range xs {
			ys[i] = pick(v, v, r.Alpha*v)
		}
	})
	return out
}

// Backward scales gradients by 1 or α depending on the input's sign.
func (r *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.input == nil {
		panic("nn: LeakyReLU.Backward called before Forward")
	}
	gradIn := tensor.New(gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	xd := r.input.Data()
	parallel.ForWorkers(r.workers, len(god), elemGrain, func(lo, hi int) {
		gs, xs, ds := god[lo:hi], xd[lo:hi], gid[lo:hi]
		for i, g := range gs {
			ds[i] = pick(xs[i], g, r.Alpha*g)
		}
	})
	return gradIn
}

// Dropout zeroes activations with probability Rate during training and
// rescales survivors by 1/(1−Rate) (inverted dropout); evaluation is a
// pass-through. The drop pattern is drawn from a seeded source so training
// runs are reproducible.
type Dropout struct {
	Rate float64

	rng      *rand.Rand
	training bool
	keep     []bool
}

// NewDropout returns a dropout layer with the given rate in [0, 1).
func NewDropout(rate float64, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: dropout rate must be in [0, 1)")
	}
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(seed)), training: true}
}

// Params returns nil: dropout has no trainable parameters.
func (d *Dropout) Params() []*Param { return nil }

// SetTraining toggles drop behaviour; evaluation passes inputs through.
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Forward drops units in training mode.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.training || d.Rate == 0 {
		d.keep = nil
		return x.Clone()
	}
	out := tensor.New(x.Shape()...)
	xd := x.Data()
	od := out.Data()
	if cap(d.keep) < len(xd) {
		d.keep = make([]bool, len(xd))
	}
	d.keep = d.keep[:len(xd)]
	scale := float32(1 / (1 - d.Rate))
	for i, v := range xd {
		if d.rng.Float64() >= d.Rate {
			od[i] = v * scale
			d.keep[i] = true
		} else {
			d.keep[i] = false
		}
	}
	return out
}

// Backward routes gradients only through kept units.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	if d.keep == nil { // eval mode or rate 0: identity
		copy(gid, god)
		return gradIn
	}
	scale := float32(1 / (1 - d.Rate))
	for i, g := range god {
		if d.keep[i] {
			gid[i] = g * scale
		}
	}
	return gradIn
}

// InstanceNorm normalizes each (sample, channel) slice over its spatial
// extent — the normalization of choice when batch sizes collapse to 1-2, as
// the paper's memory wall forces. Unlike BatchNorm it has no running
// statistics, so training and evaluation behave identically.
//
// Forward parallelizes over (sample, channel) slices, which are fully
// independent; Backward parallelizes over channels because gamma/beta
// gradients sum across the batch within a channel.
type InstanceNorm struct {
	workerBudget

	Channels int
	Eps      float64

	Gamma *Param
	Beta  *Param

	xhat *tensor.Tensor
	rstd []float64
}

// NewInstanceNorm creates an instance-normalization layer for c channels.
func NewInstanceNorm(name string, c int) *InstanceNorm {
	return &InstanceNorm{
		Channels: c,
		Eps:      1e-5,
		Gamma:    NewParam(name+".gamma", tensor.Ones(c)),
		Beta:     NewParam(name+".beta", tensor.New(c)),
	}
}

// Params returns gamma and beta.
func (n *InstanceNorm) Params() []*Param { return []*Param{n.Gamma, n.Beta} }

// Forward normalizes every (sample, channel) slice.
func (n *InstanceNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	nb, c, d, h, w := check5D("InstanceNorm", x)
	if c != n.Channels {
		panic("nn: InstanceNorm channel mismatch")
	}
	spatial := d * h * w
	out := tensor.New(x.Shape()...)
	n.xhat = tensor.New(x.Shape()...)
	n.rstd = make([]float64, nb*c)
	xd := x.Data()
	od := out.Data()
	xh := n.xhat.Data()
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
			n.rstd[s] = rstd
			g, bt := gd[s%c], bd[s%c]
			for i := base; i < base+spatial; i++ {
				xh[i] = float32((float64(xd[i]) - mean) * rstd)
				od[i] = g*xh[i] + bt
			}
		}
	})
	return out
}

// Backward implements the per-instance normalization gradient.
func (n *InstanceNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if n.xhat == nil {
		panic("nn: InstanceNorm.Backward called before Forward")
	}
	nb, c, d, h, w := check5D("InstanceNorm.Backward", gradOut)
	spatial := d * h * w
	m := float64(spatial)
	gradIn := tensor.New(gradOut.Shape()...)
	god := gradOut.Data()
	gid := gradIn.Data()
	xh := n.xhat.Data()
	gd := n.Gamma.Value.Data()
	ggd := n.Gamma.Grad.Data()
	gbd := n.Beta.Grad.Data()

	// One owner per channel: gamma/beta gradients accumulate across the
	// batch in ascending sample order, exactly like the serial loop.
	parallel.ForWorkers(n.workers, c, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			for ni := 0; ni < nb; ni++ {
				s := ni*c + ci
				base := s * spatial
				var sumDy, sumDyXhat float64
				for i := base; i < base+spatial; i++ {
					dy := float64(god[i])
					sumDy += dy
					sumDyXhat += dy * float64(xh[i])
				}
				ggd[ci] += float32(sumDyXhat)
				gbd[ci] += float32(sumDy)
				k := float64(gd[ci]) * n.rstd[s] / m
				for i := base; i < base+spatial; i++ {
					dy := float64(god[i])
					gid[i] = float32(k * (m*dy - sumDy - float64(xh[i])*sumDyXhat))
				}
			}
		}
	})
	return gradIn
}
