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

// normReluVec is normReluGo over the voxels of a plane of geometry g that
// g.walk gives the assembly, y from the plane's first interior voxel.
func normReluVec(z, y []float32, g haloGeom, mean, rstd float64, gamma, beta float32) int {
	wk, n := g.walk()
	if !useAsm || n == 0 {
		return 0
	}
	normReluAVX2(z[:g.d*g.h*g.w], y[:g.extent()], mean, rstd, gamma, beta, &wk)
	return n
}

// gatedInputGradVec is gatedInputGradGo over the voxels of a plane of
// geometry og that og.walk gives the assembly, out from the plane's first
// interior voxel.
func gatedInputGradVec(g, h, out []float32, og haloGeom, k, m, sumDy, sumDyXhat float64, gamma, beta float32) int {
	wk, n := og.walk()
	if !useAsm || n == 0 {
		return 0
	}
	vol := og.d * og.h * og.w
	inputGradAVX2(g[:vol], h[:vol], out[:og.extent()], k, m, sumDy, sumDyXhat, gamma, beta, &wk)
	return n
}

// gradSumsVec is addGradSumsGo, gated by aff, over the leading multiple of
// 4 elements of the planes.
func gradSumsVec(sumDy, sumDyXhat *[4]float64, g, h *[4][]float32, aff *laneAffine) int {
	if !useAsm {
		return 0
	}
	n := len(g[0]) &^ 3
	var gs, hs [4][]float32
	for j := range gs {
		gs[j], hs[j] = g[j][:n], h[j][:n]
	}
	gradSumsAVX2(sumDy, sumDyXhat, &gs, &hs, aff, n/4)
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

// maxPoolVec is MaxPool3D.pool's 2×2×2 window loop without argmax, for
// one channel of od×oh pooled rows of ow voxels — window (z, y, x) at
// src[2z·plane + 2y·wp + 2x], pooled voxel at dst[z·oplane + y·owp + x] —
// over the leading multiple of 8 of each row's voxels.
func maxPoolVec(dst, src []float32, wp, plane, owp, oplane, od, oh, ow int) int {
	n := ow &^ 7
	if !useAsm || n == 0 || od == 0 || oh == 0 {
		return 0
	}
	maxPoolAVX2(dst[:(od-1)*oplane+(oh-1)*owp+n], src[:(2*od-1)*plane+(2*oh-1)*wp+2*n],
		wp, plane, owp, oplane, od, oh, n/8)
	return n
}

// maxPoolArgVec is MaxPool3D.pool's 2×2×2 window loop with argmax, for
// one pooled plane of one channel: p.oh pooled rows of 8·p.blocks + 4·p.half
// voxels, window (y, x) at src[2y·wp + 2x] and src[plane + 2y·wp + 2x], the
// pooled voxel at dst[y·owp + x] and its winner's plain index, corner +
// y·w2 + 2x plus the element's p.taps entry, at arg[y·aw + x]. It returns
// how many of each row's voxels it did: none without AVX2.
func maxPoolArgVec(dst []float32, arg []int32, src []float32, corner int, p *argPool) int {
	n := 8*p.blocks + 4*p.half
	if !useAsm || n == 0 || p.oh == 0 {
		return 0
	}
	maxPoolArgAVX2(dst[:(p.oh-1)*p.owp+n], arg[:(p.oh-1)*p.aw+n], src[:p.plane+(2*p.oh-1)*p.wp+2*n], corner, p)
	return n
}

//go:noescape
func maxPoolArgAVX2(dst []float32, arg []int32, src []float32, corner int, p *argPool)

//go:noescape
func normReluAVX2(z, y []float32, mean, rstd float64, gamma, beta float32, walk *rowWalk)

//go:noescape
func inputGradAVX2(grad, h, out []float32, k, m, sumDy, sumDyXhat float64, gamma, beta float32, walk *rowWalk)

//go:noescape
func gradSumsAVX2(sumDy, sumDyXhat *[4]float64, grad, h *[4][]float32, aff *laneAffine, quads int)

//go:noescape
func interleaveAVX2(dst, src []float32, stride, cp, blocks int)

//go:noescape
func maxPoolAVX2(dst, src []float32, wp, plane, owp, oplane, od, oh, blocks int)
