//go:build amd64

package nn

import "repro/internal/gemm"

// useAsm reports whether the AVX2 element loops are live: gemm's
// once-at-init check, so both packages take the same paths.
var useAsm = gemm.AVX2()

// Each wrapper below runs the leading whole blocks of its loop in assembly
// and returns how many elements (voxels, for interleave) it did — none
// without AVX2 — leaving the rest to the caller's Go loop. The assembly
// reads no lengths: the wrappers slice every operand to the extent it
// touches first, which is the bounds check.

// normReluVec is normReluGo over the leading multiple of 8 elements of z.
func normReluVec(z, y []float32, mean, rstd float64, gamma, beta float32) int {
	if !useAsm {
		return 0
	}
	n := len(z) &^ 7
	normReluAVX2(z[:n], y[:n], mean, rstd, gamma, beta, n/8)
	return n
}

// gatedInputGradVec is gatedInputGradGo over the leading multiple of 8
// elements of g.
func gatedInputGradVec(g, y, h []float32, k, m, sumDy, sumDyXhat float64) int {
	if !useAsm {
		return 0
	}
	n := len(g) &^ 7
	inputGradAVX2(g[:n], y[:n], h[:n], k, m, sumDy, sumDyXhat, n/8)
	return n
}

// gradSumsVec is addGradSumsGo, gated, over the leading multiple of 4
// elements of the planes.
func gradSumsVec(sumDy, sumDyXhat *[4]float64, g, y, h *[4][]float32) int {
	if !useAsm {
		return 0
	}
	n := len(g[0]) &^ 3
	var gs, ys, hs [4][]float32
	for j := range gs {
		gs[j], ys[j], hs[j] = g[j][:n], y[j][:n], h[j][:n]
	}
	gradSumsAVX2(sumDy, sumDyXhat, &gs, &ys, &hs, n/4)
	return n
}

// interleaveVec is interleaveGo over the leading multiple of 4 of count
// voxels.
func interleaveVec(dst, src []float32, stride, cp, count int) int {
	n := count &^ 3
	if !useAsm || n == 0 {
		return 0
	}
	interleaveAVX2(dst[:(n-1)*cp+4], src[:3*stride+n], stride, cp, n/4)
	return n
}

//go:noescape
func normReluAVX2(z, y []float32, mean, rstd float64, gamma, beta float32, blocks int)

//go:noescape
func inputGradAVX2(grad, y, h []float32, k, m, sumDy, sumDyXhat float64, blocks int)

//go:noescape
func gradSumsAVX2(sumDy, sumDyXhat *[4]float64, grad, y, h *[4][]float32, quads int)

//go:noescape
func interleaveAVX2(dst, src []float32, stride, cp, blocks int)
