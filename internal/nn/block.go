package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// ConvBNReLU is the body site of the paper's U-Net — a 3-D convolution, batch
// normalization and ReLU — as one block that owns its buffers. It computes
// exactly what the chain Conv3D → BatchNorm → ReLU computes, bit for bit (the
// convolution is a Conv3D, the statistics go through the same BatchNorm code,
// every element through the arithmetic of elementwise.go's helpers — in
// their Go loops, or in the AVX2 loops held bit for bit to them — or, in
// Infer, through the GEMM epilogue that rounds as they do), in fewer passes
// over the activation and with nothing allocated per step:
//
//   - Forward (always training): the convolution writes z into a buffer the
//     block keeps; after BatchNorm's two statistics passes, one pass
//     overwrites z with x̂ and writes y = max(0, γ·x̂+β) into a second
//     buffer. The chain holds four activation-sized tensors and a mask here;
//     the block two.
//   - Backward: the ReLU mask is y > 0, so one reduction pass over (g, y, x̂)
//     yields Σdy and Σdy·x̂ — a masked element adds +0, as the chain's zeroed
//     gradient does — and one pass writes dL/dz over the incoming gradient;
//     then the convolution's bias, kernel and input-gradient passes.
//   - Infer: one convolution, whose GEMM store adds the bias, normalizes
//     with the running statistics and rectifies each element while it is
//     still in a register (gemm.Norm) — no pass of its own.
//
// Ownership: Forward's result and Backward's result are the block's own
// buffers — laid out on first use, grown to the largest shape seen, reused by
// every later call and released by DropCaches — so each is valid only until
// the block's next Forward (resp. Backward), and a caller that needs it
// longer copies it. Backward OVERWRITES the gradient it is given; Forward and
// Infer never touch their input. Infer draws its one tensor from the scratch
// pool and retains nothing, like every other Infer.
type ConvBNReLU struct {
	Conv *Conv3D
	BN   *BatchNorm

	xhat   tensor.Owned // z, then x̂
	y      tensor.Owned // the block's output
	gradIn tensor.Owned // dL/d(input)

	// What the last Forward left in the buffers above for Backward: x̂ and y,
	// nil before any Forward and after DropCaches.
	fwdXhat, fwdY *tensor.Tensor
}

// NewConvBNReLU creates the block; its convolution and normalization carry
// the names (name.w, name.b, name.gamma, name.beta, name.running_*) and draw
// the initial weights the standalone layers would.
func NewConvBNReLU(name string, inC, outC, kernel int, rng *rand.Rand) *ConvBNReLU {
	return &ConvBNReLU{
		Conv: NewConv3D(name, inC, outC, kernel, rng),
		BN:   NewBatchNorm(name, outC),
	}
}

// Params returns the kernel, bias, gamma and beta, in the chain's order.
func (b *ConvBNReLU) Params() []*Param { return append(b.Conv.Params(), b.BN.Params()...) }

// AuxState exposes the normalization's running statistics.
func (b *ConvBNReLU) AuxState() map[string][]float64 { return b.BN.AuxState() }

// SetWorkers sets the worker budget of every pass.
func (b *ConvBNReLU) SetWorkers(workers int) {
	b.Conv.SetWorkers(workers)
	b.BN.SetWorkers(workers)
}

// DropCaches implements CacheDropper: the retained input reference and every
// owned buffer — x̂, the output, the input gradient — are released; the next
// Forward lays them out again.
func (b *ConvBNReLU) DropCaches() {
	b.Conv.DropCaches()
	b.BN.DropCaches()
	b.xhat.Release()
	b.y.Release()
	b.gradIn.Release()
	b.fwdXhat, b.fwdY = nil, nil
}

// Forward computes max(0, BN(conv(x))) under the batch statistics into the
// block's output buffer and folds them into the running estimates.
func (b *ConvBNReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	bn := b.BN
	z := b.Conv.ForwardOwned(x, &b.xhat)
	y := b.y.Shaped(z.Shape()...)
	b.fwdXhat, b.fwdY = z, y
	n, c, spatial := bn.check("ConvBNReLU", z)
	zd, yd := z.Data(), y.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	bn.sizeStats()
	forChannelQuads(bn.workers, c, func(lanes *[4]int, live int) {
		bn.trainStats(zd, n, spatial, lanes, live)
		for _, ci := range lanes[:live] {
			mean, rstd := bn.mean[ci], bn.rstd[ci]
			g, bt := gd[ci], bd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				normRelu(zd[base:base+spatial], yd[base:base+spatial], mean, rstd, g, bt)
			}
		}
	})
	return y
}

// Infer computes max(0, BN(conv(x))) under the running statistics into one
// pool-backed tensor, retaining nothing: the convolution, with the
// normalization and ReLU applied by its GEMM's store.
func (b *ConvBNReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	rstd := rstdTables.Get().(*[]float64)
	defer rstdTables.Put(rstd)
	return b.Conv.apply(x, tensor.NewScratch, b.BN.evalNorm(rstd))
}

// Backward accumulates the four parameter gradients and returns dL/d(input)
// in the block's own buffer. gradOut is overwritten (with dL/dz).
func (b *ConvBNReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b.preConvGrad(gradOut)
	return b.Conv.BackwardOwned(gradOut, &b.gradIn)
}

// BackwardParams is Backward without the input-gradient pass, for the
// network's first block, whose input gradient nobody reads.
func (b *ConvBNReLU) BackwardParams(gradOut *tensor.Tensor) {
	b.preConvGrad(gradOut)
	b.Conv.backward(gradOut, nil)
}

// preConvGrad runs the ReLU and BatchNorm backward passes in place: γ and β
// gradients are accumulated and gradOut becomes dL/dz.
func (b *ConvBNReLU) preConvGrad(gradOut *tensor.Tensor) {
	bn := b.BN
	if b.fwdY == nil {
		panic("nn: ConvBNReLU.Backward called before Forward")
	}
	checkGradShape("ConvBNReLU.Backward", gradOut, b.fwdY.Shape()...)
	n, c, spatial := bn.check("ConvBNReLU.Backward", gradOut)
	m := float64(n * spatial)
	god, yd, xh := gradOut.Data(), b.fwdY.Data(), b.fwdXhat.Data()
	forChannelQuads(bn.workers, c, func(lanes *[4]int, live int) {
		sumDy, sumDyXhat := bn.gradSums(god, yd, xh, n, spatial, lanes)
		for j, ci := range lanes[:live] {
			k := bn.channelGrads(ci, sumDy[j], sumDyXhat[j], m)
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				gatedInputGrad(god[base:base+spatial], yd[base:base+spatial], xh[base:base+spatial], k, m, sumDy[j], sumDyXhat[j])
			}
		}
	})
}
