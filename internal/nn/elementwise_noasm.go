//go:build !amd64

package nn

// useAsm is false off amd64: the Go loops are the only paths.
const useAsm = false

func normReluVec(z, y []float32, mean, rstd float64, gamma, beta float32) int { return 0 }

func gatedInputGradVec(g, y, h []float32, k, m, sumDy, sumDyXhat float64) int { return 0 }

func gradSumsVec(sumDy, sumDyXhat *[4]float64, g, y, h *[4][]float32) int { return 0 }

func interleaveVec(dst, src []float32, stride, cp, count int) int { return 0 }

func maxPoolVec(dst, src []float32, wp, plane, owp, oplane, od, oh, ow int) int { return 0 }
