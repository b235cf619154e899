//go:build !amd64

package nn

// useAsm is false off amd64: the Go loops are the only paths.
const useAsm = false

func normReluVec(z, y []float32, g haloGeom, mean, rstd float64, gamma, beta float32) int { return 0 }

func gatedInputGradVec(g, h, out []float32, og haloGeom, k, m, sumDy, sumDyXhat float64, gamma, beta float32) int {
	return 0
}

func gradSumsVec(sumDy, sumDyXhat *[4]float64, g, h *[4][]float32, aff *laneAffine) int { return 0 }

func interleaveVec(dst, src []float32, stride, cp, count int) int { return 0 }

func maxPoolVec(dst, src []float32, wp, plane, owp, oplane, od, oh, ow int) int { return 0 }

func maxPoolArgVec(dst []float32, arg []int32, src []float32, corner int, p *argPool) int { return 0 }
