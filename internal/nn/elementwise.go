package nn

import "math"

// Element-wise arithmetic shared by the standalone BatchNorm / ReLU layers
// and the fused ConvBNReLU block's training passes. Both sides call these
// and nothing else for the per-element work, so the chain and the block
// agree bit for bit by construction. Every operation is rounded where it is
// written — no a*b + c the compiler could fuse — because the block's
// evaluation-mode forward does not call them: the GEMM's store computes the
// same formula (gemm.Norm) in vector registers, and TestBlockMatchesChain
// holds the two to the same bits, GOAMD64=v3 and 386 included.

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
	return sumDy + dy, sumDyXhat + dy*float64(xhat)
}

// bnInputGrad is one element of the batch-norm input gradient,
// k·(m·dy − Σdy − x̂·Σdy·x̂) with k = γ·rstd/m.
func bnInputGrad(k, m, dy, sumDy float64, xhat float32, sumDyXhat float64) float32 {
	return float32(k * (m*dy - sumDy - float64(xhat)*sumDyXhat))
}
