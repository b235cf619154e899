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
//   - Forward (always training): the convolution reads its input where it
//     lies when that is inside its halo (Haloed), and writes z into a buffer
//     the block keeps; after BatchNorm's two statistics passes, one pass
//     overwrites z with x̂ and writes y = max(0, γ·x̂+β) where the caller
//     asks — inside the zero border its consumer's convolution reads in
//     place, in a channel window of a wider buffer, or plain
//     (ForwardHaloed). The chain holds four activation-sized tensors and a
//     mask here; the block two.
//   - Backward: the ReLU mask is y > 0, which is γ·x̂+β > 0, so the passes
//     rebuild it from x̂ and read no y. One reduction pass over (g, x̂) yields
//     Σdy and Σdy·x̂ — a masked element adds +0, as the chain's zeroed
//     gradient does — and one pass writes dL/dz over the incoming gradient,
//     which the bias and kernel gradients read, and again inside the
//     convolution's halo (SetGradHalo), which the input gradient reads in
//     place.
//   - Infer: one convolution, whose GEMM store adds the bias, normalizes
//     with the running statistics and rectifies each element while it is
//     still in a register (gemm.Norm) — no pass of its own.
//
// Ownership: Forward's result and Backward's result are the block's own
// buffers — laid out on first use, grown to the largest shape seen, reused by
// every later call and released by DropCaches — so each is valid only until
// the block's next Forward (resp. Backward), and a caller that needs it
// longer copies it. Backward OVERWRITES the gradient it is given; Forward
// and Infer never touch their input. InferInto writes the tensor it is given and retains nothing, like
// every other InferInto.
type ConvBNReLU struct {
	Conv *Conv3D
	BN   *BatchNorm

	xhat   tensor.Owned // z, then x̂
	y      HaloBuffer   // the block's own output (Output)
	dz     *HaloBuffer  // dL/dz inside the input gradient's halo: the block's own, or its network's
	gradIn tensor.Owned // dL/d(input)

	// What the last Forward left for Backward: x̂, nil before any Forward
	// and after DropCaches.
	fwdXhat *tensor.Tensor
}

// NewConvBNReLU creates the block; its convolution and normalization carry
// the names (name.w, name.b, name.gamma, name.beta, name.running_*) and draw
// the initial weights the standalone layers would.
func NewConvBNReLU(name string, inC, outC, kernel int, rng *rand.Rand) *ConvBNReLU {
	return &ConvBNReLU{
		Conv: NewConv3D(name, inC, outC, kernel, rng),
		BN:   NewBatchNorm(name, outC),
		dz:   new(HaloBuffer),
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

// SetWorkspace points the convolution's scratch at ws (Conv3D.SetWorkspace).
func (b *ConvBNReLU) SetWorkspace(ws *tensor.Workspace) { b.Conv.SetWorkspace(ws) }

// SetGradHalo points the buffer Backward stores dL/dz in, inside the input
// gradient's halo, at h, shared with blocks that never run at the same time
// as this one (unet.New shares one per network): one buffer that every
// block's Backward writes and its input gradient reads right away stays in
// cache, where one per block would not.
func (b *ConvBNReLU) SetGradHalo(h *HaloBuffer) { b.dz = h }

// DropCaches releases the retained input reference and every buffer it
// uses — x̂, the output, dL/dz, the input gradient; the next Forward lays
// them out again.
func (b *ConvBNReLU) DropCaches() {
	b.Conv.DropCaches()
	b.BN.DropCaches()
	b.xhat.Release()
	b.y.Release()
	b.dz.Release()
	b.gradIn.Release()
	b.fwdXhat = nil
}

// Forward computes max(0, BN(conv(x))) under the batch statistics into the
// block's output buffer, a plain tensor, and folds them into the running
// estimates.
func (b *ConvBNReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, _, d, h, w := check5D("ConvBNReLU", x)
	y := b.Output(n, d, h, w, 0)
	b.ForwardHaloed(Whole(x), y)
	return y.Buf
}

// Output is the block's own output buffer laid out as an [n, OC, d, h, w]
// activation inside a zero border p wide (HaloBuffer.Shaped), for
// ForwardHaloed to store y in where no wider buffer is to hold it.
func (b *ConvBNReLU) Output(n, d, h, w, p int) Haloed {
	return b.y.Shaped(n, b.Conv.OutChannels, d, h, w, p, b.Conv.workers)
}

// ForwardHaloed is Forward between haloed activations: x is read where it
// lies when its border is the convolution's halo (K/2 wide and zero), and
// copied into one when it is whole; y goes into dst's interiors, and nothing
// else of dst's buffer is written. x must stay unchanged until Backward,
// whose kernel gradient reads it where it lies.
func (b *ConvBNReLU) ForwardHaloed(x, dst Haloed) {
	bn := b.BN
	n, _, d, h, w := x.shape("ConvBNReLU")
	z := b.Conv.forwardTrain(x, b.xhat.Shaped(n, b.Conv.OutChannels, d, h, w))
	checkHaloedDst("ConvBNReLU", dst, n, b.Conv.OutChannels, d, h, w)
	b.fwdXhat = z
	_, c, spatial := bn.check("ConvBNReLU", z)
	g := dst.geom()
	zd, yd := z.Data(), dst.Buf.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	bn.sizeStats()
	forChannelQuads(bn.workers, c, func(lanes *[4]int, live int) {
		bn.trainStats(zd, n, spatial, lanes, live)
		for _, ci := range lanes[:live] {
			mean, rstd := bn.mean[ci], bn.rstd[ci]
			gm, bt := gd[ci], bd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				normRelu(zd[base:base+spatial], yd[dst.plane(g, ni, ci):], g, mean, rstd, gm, bt)
			}
		}
	})
}

// Infer is InferInto a fresh tensor.
func (b *ConvBNReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	return b.InferInto(x, tensor.New(b.Conv.outShape(x)...))
}

// InferInto computes max(0, BN(conv(x))) under the running statistics into
// dst, retaining nothing: the convolution, with the normalization and ReLU
// applied by its GEMM's store.
func (b *ConvBNReLU) InferInto(x, dst *tensor.Tensor) *tensor.Tensor {
	b.InferHaloed(Whole(x), Whole(dst))
	return dst
}

// InferHaloed is InferInto between haloed activations: x is read where it
// lies when its border is the convolution's halo (K/2 wide and zero), and
// copied into one when it is whole; the GEMM's store writes the output into
// dst's interiors and nothing else of its buffer.
func (b *ConvBNReLU) InferHaloed(x, dst Haloed) {
	b.Conv.forward(x, dst, b.BN.evalNorm())
}

// Backward accumulates the four parameter gradients and returns dL/d(input)
// in the block's own buffer. gradOut is overwritten (with dL/dz).
func (b *ConvBNReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b.checkBackward(gradOut)
	dz := b.dzHalo(gradOut)
	b.preConvGrad(gradOut, dz)
	n, ic, d, h, w := b.Conv.input.shape("ConvBNReLU.Backward")
	return b.Conv.backward(gradOut, dz, b.gradIn.Shaped(n, ic, d, h, w))
}

// BackwardParams is Backward without the input-gradient pass, for the
// network's first block, whose input gradient nobody reads.
func (b *ConvBNReLU) BackwardParams(gradOut *tensor.Tensor) {
	b.checkBackward(gradOut)
	b.preConvGrad(gradOut, Whole(gradOut))
	b.Conv.backward(gradOut, Haloed{}, nil)
}

func (b *ConvBNReLU) checkBackward(gradOut *tensor.Tensor) {
	if b.fwdXhat == nil {
		panic("nn: ConvBNReLU.Backward called before Forward")
	}
	checkGradShape("ConvBNReLU.Backward", gradOut, b.fwdXhat.Shape()...)
}

// dzHalo is where the input gradient reads dL/dz: inside the convolution's
// halo, in the dL/dz buffer, or, for a 1×1×1 kernel, which needs no halo,
// gradOut itself.
func (b *ConvBNReLU) dzHalo(gradOut *tensor.Tensor) Haloed {
	p := b.Conv.Kernel / 2
	if p == 0 {
		return Whole(gradOut)
	}
	n, c, d, h, w := check5D("ConvBNReLU.Backward", gradOut)
	return b.dz.Shaped(n, c, d, h, w, p, b.Conv.workers)
}

// preConvGrad runs the ReLU and BatchNorm backward passes: γ and β gradients
// are accumulated, and dL/dz overwrites gradOut and goes into dz's
// interiors too.
func (b *ConvBNReLU) preConvGrad(gradOut *tensor.Tensor, dz Haloed) {
	bn := b.BN
	n, c, spatial := bn.check("ConvBNReLU.Backward", gradOut)
	m := float64(n * spatial)
	g := dz.geom()
	god, xh, dzd := gradOut.Data(), b.fwdXhat.Data(), dz.Buf.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	forChannelQuads(bn.workers, c, func(lanes *[4]int, live int) {
		sumDy, sumDyXhat := bn.gradSums(god, xh, n, spatial, lanes, true)
		for j, ci := range lanes[:live] {
			k := bn.channelGrads(ci, sumDy[j], sumDyXhat[j], m)
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * spatial
				gatedInputGrad(god[base:base+spatial], xh[base:base+spatial], dzd[dz.plane(g, ni, ci):], g,
					k, m, sumDy[j], sumDyXhat[j], gd[ci], bd[ci])
			}
		}
	})
}
