package nn

import "math"

// Element-wise arithmetic of batch normalization and ReLU, shared by the
// standalone BatchNorm / ReLU layers and the fused ConvBNReLU block's
// training passes, so the chain and the block agree bit for bit by
// construction.
//
// The scalar helpers below define the arithmetic. The standalone layers call
// them element by element. The block's passes — normRelu, gatedInputGrad,
// the gated addGradSums (batchnorm.go) and the channels-last interleave
// (conv3d_gemm.go) — run their leading whole blocks through AVX2 assembly
// (elementwise_amd64.s) when gemm's AVX2 paths are live, and the tail
// (length mod 8, or mod 4) through the Go loop. Without AVX2, and off
// amd64, the Go loops run alone. They are the oracle, as gemm's kernelGo is
// for its assembly: TestElementwiseAsmMatchesGo holds each routine to its
// loop bit for bit, and the GOARCH=386 CI run holds the Go side to the
// goldens.
//
// Every operation is rounded where it is written. A product that is then
// added or subtracted is wrapped in an explicit conversion — float64(a*b) +
// c — because the Go spec lets a compiler fuse a*b + c into one FMA (arm64
// does) unless a conversion rounds the product first; the assembly keeps
// every VMULPD and VADDPD separate for the same reason. The block's Infer
// does not call these: the GEMM's store computes the same formula
// (gemm.Norm) in vector registers, and TestBlockMatchesChain holds the two
// to the same bits, GOAMD64=v3 and 386 included.

// gate returns g where y > 0 and +0 everywhere else (y NaN, ±0 or
// negative). It is a select, not a branch: the sign of an activation is a
// coin toss the branch predictor loses half the time.
func gate(y, g float32) float32 {
	var keep uint32
	if y > 0 {
		keep = ^uint32(0)
	}
	return math.Float32frombits(math.Float32bits(g) & keep)
}

// relu is max(0, v) with NaN and −0 mapped to +0.
func relu(v float32) float32 { return gate(v, v) }

// bnNormalize is one element of x̂ = (x − mean)·rstd, computed in float64 and
// rounded once.
func bnNormalize(v float32, mean, rstd float64) float32 {
	return float32((float64(v) - mean) * rstd)
}

// bnAffine is one element of γ·x̂ + β, the product rounded before the sum.
func bnAffine(gamma, xhat, beta float32) float32 { return float32(gamma*xhat) + beta }

// bnReduce adds one element to a channel's two backward reductions, Σdy and
// Σdy·x̂.
func bnReduce(sumDy, sumDyXhat, dy float64, xhat float32) (float64, float64) {
	return sumDy + dy, sumDyXhat + float64(dy*float64(xhat))
}

// bnInputGrad is one element of the batch-norm input gradient,
// k·(m·dy − Σdy − x̂·Σdy·x̂) with k = γ·rstd/m.
func bnInputGrad(k, m, dy, sumDy float64, xhat float32, sumDyXhat float64) float32 {
	return float32(k * (float64(m*dy) - sumDy - float64(float64(xhat)*sumDyXhat)))
}

// normRelu is the block's forward pass over one channel plane: z is
// overwritten with x̂ and y[i] = relu(γ·x̂[i] + β).
func normRelu(z, y []float32, mean, rstd float64, gamma, beta float32) {
	done := normReluVec(z, y, mean, rstd, gamma, beta)
	normReluGo(z[done:], y[done:], mean, rstd, gamma, beta)
}

func normReluGo(z, y []float32, mean, rstd float64, gamma, beta float32) {
	y = y[:len(z)]
	for i, v := range z {
		xh := bnNormalize(v, mean, rstd)
		z[i] = xh
		y[i] = relu(bnAffine(gamma, xh, beta))
	}
}

// gatedInputGrad is the block's input-gradient pass over one channel plane:
// g is overwritten with the batch-norm input gradient of g gated by the
// ReLU's output y, with x̂ = h.
func gatedInputGrad(g, y, h []float32, k, m, sumDy, sumDyXhat float64) {
	done := gatedInputGradVec(g, y, h, k, m, sumDy, sumDyXhat)
	gatedInputGradGo(g[done:], y[done:], h[done:], k, m, sumDy, sumDyXhat)
}

func gatedInputGradGo(g, y, h []float32, k, m, sumDy, sumDyXhat float64) {
	y, h = y[:len(g)], h[:len(g)]
	for i, v := range g {
		g[i] = bnInputGrad(k, m, float64(gate(y[i], v)), sumDy, h[i], sumDyXhat)
	}
}
