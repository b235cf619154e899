package nn

import (
	"math"
	"sync"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// BatchNorm normalizes each channel over the batch and spatial dimensions,
// as the paper applies before each ReLU. Forward uses the batch statistics
// and updates the running estimates; Infer uses the running estimates.
//
// Forward and Backward parallelize over groups of four channels: each
// channel's statistics, running estimates and output plane belong to exactly
// one worker, so the float64 accumulation order per channel is unchanged
// from the serial code. Each reduction is a chain of dependent adds, bound
// by the add's latency, so a group's four chains are stepped together
// (forChannelQuads); each keeps its own order.
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

	// Cached by Forward for Backward.
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
	}
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Params returns gamma and beta.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// AuxState exposes the running statistics — trained state that is not a
// parameter but must survive a checkpoint for Infer to reproduce. The
// returned slices alias the layer's state: checkpoint loading writes into
// them in place.
func (b *BatchNorm) AuxState() map[string][]float64 {
	return map[string][]float64{
		b.name + ".running_mean": b.RunningMean,
		b.name + ".running_var":  b.RunningVar,
	}
}

// DropCaches implements CacheDropper: the retained x̂ is dropped. Backward
// requires a fresh Forward afterwards.
func (b *BatchNorm) DropCaches() { b.xhat = nil }

// Forward normalizes x per channel with the batch statistics and folds them
// into the running estimates.
func (b *BatchNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, spatial := b.check("BatchNorm", x)
	out := tensor.New(x.Shape()...)
	b.xhat = tensor.New(x.Shape()...)
	xd, od, xh := x.Data(), out.Data(), b.xhat.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	b.sizeStats()
	forChannelQuads(b.workers, c, func(lanes *[4]int, live int) {
		b.trainStats(xd, n, spatial, lanes, live)
		for _, ci := range lanes[:live] {
			mean, rstd := b.mean[ci], b.rstd[ci]
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

// trainStats computes the batch statistics of the live channels of a group
// of xd ([n, C, spatial]) in two float64 passes, samples ascending, the
// group's chains stepped together; records them for Backward (b.mean,
// b.rstd) and folds them into the running estimates. Each channel belongs to
// one caller at a time.
func (b *BatchNorm) trainStats(xd []float32, n, spatial int, lanes *[4]int, live int) {
	c := b.Channels
	m := float64(n * spatial)
	var sum, varSum, mean [4]float64
	for ni := 0; ni < n; ni++ {
		addSums(&sum, planes(xd, ni*c, spatial, lanes))
	}
	for j := range mean {
		mean[j] = sum[j] / m
	}
	for ni := 0; ni < n; ni++ {
		addSquaredDevs(&varSum, &mean, planes(xd, ni*c, spatial, lanes))
	}
	for j, ci := range lanes[:live] {
		variance := varSum[j] / m
		b.mean[ci] = mean[j]
		b.rstd[ci] = 1.0 / math.Sqrt(variance+b.Eps)
		b.RunningMean[ci] = float64((1-b.Momentum)*b.RunningMean[ci]) + float64(b.Momentum*mean[j])
		b.RunningVar[ci] = float64((1-b.Momentum)*b.RunningVar[ci]) + float64(b.Momentum*variance)
	}
}

// addSums adds the elements of four planes onto four float64 chains, one
// chain per plane, in element order.
func addSums(s *[4]float64, p [4][]float32) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	p0 := p[0]
	p1, p2, p3 := p[1][:len(p0)], p[2][:len(p0)], p[3][:len(p0)]
	for i, v := range p0 {
		s0 += float64(v)
		s1 += float64(p1[i])
		s2 += float64(p2[i])
		s3 += float64(p3[i])
	}
	*s = [4]float64{s0, s1, s2, s3}
}

// addSquaredDevs adds the squared deviations of four planes' elements from
// their plane's mean onto four float64 chains, in element order.
func addSquaredDevs(s, mean *[4]float64, p [4][]float32) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	p0 := p[0]
	p1, p2, p3 := p[1][:len(p0)], p[2][:len(p0)], p[3][:len(p0)]
	for i, v := range p0 {
		d0, d1, d2, d3 := float64(v)-m0, float64(p1[i])-m1, float64(p2[i])-m2, float64(p3[i])-m3
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	*s = [4]float64{s0, s1, s2, s3}
}

// evalStats returns channel ci's running mean and 1/sqrt(running var+eps).
func (b *BatchNorm) evalStats(ci int) (mean, rstd float64) {
	return b.RunningMean[ci], 1.0 / math.Sqrt(b.RunningVar[ci]+b.Eps)
}

// rstdTables recycles the per-call 1/σ tables of evalNorm, so a steady-state
// ConvBNReLU.Infer allocates none.
var rstdTables = sync.Pool{New: func() any { return new([]float64) }}

// evalNorm is Infer's normalization as a GEMM epilogue: the running mean,
// 1/sqrt(running var+eps) written into *rstd (grown to fit), and the live γ
// and β — the arithmetic of Infer followed by ReLU.
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

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward called before Forward")
	}
	checkGradShape("BatchNorm.Backward", gradOut, b.xhat.Shape()...)
	n, c, spatial := b.check("BatchNorm.Backward", gradOut)
	m := float64(n * spatial)
	gradIn := tensor.New(gradOut.Shape()...)

	god := gradOut.Data()
	gid := gradIn.Data()
	xh := b.xhat.Data()

	forChannelQuads(b.workers, c, func(lanes *[4]int, live int) {
		sumDy, sumDyXhat := b.gradSums(god, nil, xh, n, spatial, lanes)
		for j, ci := range lanes[:live] {
			k := b.channelGrads(ci, sumDy[j], sumDyXhat[j], m)
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				gs, hs, ds := god[base:base+spatial], xh[base:base+spatial], gid[base:base+spatial]
				for i, g := range gs {
					ds[i] = bnInputGrad(k, m, float64(g), sumDy[j], hs[i], sumDyXhat[j])
				}
			}
		}
	})
	return gradIn
}

// gradSums returns the backward reductions Σdy and Σdy·x̂ of a group of
// channels of god and x̂ ([n, C, spatial]), samples ascending, the group's
// chains stepped together. dy is the gradient itself, or — when yd, the
// output of a ReLU that followed, is non-nil — the gradient gated by yd > 0.
func (b *BatchNorm) gradSums(god, yd, xh []float32, n, spatial int, lanes *[4]int) (sumDy, sumDyXhat [4]float64) {
	c := b.Channels
	var y [4][]float32
	for ni := 0; ni < n; ni++ {
		if yd != nil {
			y = planes(yd, ni*c, spatial, lanes)
		}
		addGradSums(&sumDy, &sumDyXhat, planes(god, ni*c, spatial, lanes), y, planes(xh, ni*c, spatial, lanes))
	}
	return sumDy, sumDyXhat
}

// addGradSums adds four planes' elements onto their channels' Σdy and Σdy·x̂
// chains, in element order: dy = g, gated by y > 0 where y's planes are set.
// The gated sums run their leading multiple of 4 elements in AVX2 where it
// is live.
func addGradSums(sumDy, sumDyXhat *[4]float64, g, y, h [4][]float32) {
	if y[0] != nil {
		done := gradSumsVec(sumDy, sumDyXhat, &g, &y, &h)
		for j := range g {
			g[j], y[j], h[j] = g[j][done:], y[j][done:], h[j][done:]
		}
	}
	addGradSumsGo(sumDy, sumDyXhat, g, y, h)
}

func addGradSumsGo(sumDy, sumDyXhat *[4]float64, g, y, h [4][]float32) {
	s0, s1, s2, s3 := sumDy[0], sumDy[1], sumDy[2], sumDy[3]
	x0, x1, x2, x3 := sumDyXhat[0], sumDyXhat[1], sumDyXhat[2], sumDyXhat[3]
	g0 := g[0]
	n := len(g0)
	g1, g2, g3 := g[1][:n], g[2][:n], g[3][:n]
	h0, h1, h2, h3 := h[0][:n], h[1][:n], h[2][:n], h[3][:n]
	gated := y[0] != nil
	var y0, y1, y2, y3 []float32
	if gated {
		y0, y1, y2, y3 = y[0][:n], y[1][:n], y[2][:n], y[3][:n]
	}
	for i, d0 := range g0 {
		d1, d2, d3 := g1[i], g2[i], g3[i]
		if gated {
			d0, d1, d2, d3 = gate(y0[i], d0), gate(y1[i], d1), gate(y2[i], d2), gate(y3[i], d3)
		}
		s0, x0 = bnReduce(s0, x0, float64(d0), h0[i])
		s1, x1 = bnReduce(s1, x1, float64(d1), h1[i])
		s2, x2 = bnReduce(s2, x2, float64(d2), h2[i])
		s3, x3 = bnReduce(s3, x3, float64(d3), h3[i])
	}
	*sumDy = [4]float64{s0, s1, s2, s3}
	*sumDyXhat = [4]float64{x0, x1, x2, x3}
}

// channelGrads accumulates channel ci's γ and β gradients from its two
// reductions over the m elements of the channel and returns the input
// gradient's scale k = γ·rstd/m.
func (b *BatchNorm) channelGrads(ci int, sumDy, sumDyXhat, m float64) float64 {
	b.Gamma.Grad.Data()[ci] += float32(sumDyXhat)
	b.Beta.Grad.Data()[ci] += float32(sumDy)
	return float64(b.Gamma.Value.Data()[ci]) * b.rstd[ci] / m
}
