package nn

import "repro/internal/tensor"

// gemmBackend lowers every conv path to blocked GEMMs (conv3d_gemm.go,
// convtranspose3d_gemm.go) — the default backend. A Conv3D pass multiplies
// by a patch matrix that is never built: the GEMM's B panels are packed
// straight from a zero-haloed copy of the activation, by the same code in
// the training forward, Infer and — with the kernel flipped — the input
// gradient, and transposed in the kernel gradient. Nothing is kept between
// passes. Outputs are bit-for-bit independent of the worker budget and match
// the direct reference within the documented ULP bounds. It supports every
// shape and is the first fallback for shape-specialized backends.
type gemmBackend struct{}

func (gemmBackend) Name() string { return "gemm" }

func (gemmBackend) Supports(ConvSpec) bool { return true }

func (gemmBackend) ConvForward(c *Conv3D, x, out *tensor.Tensor) {
	c.forwardGEMMInto(x, out)
}

func (gemmBackend) ConvBackwardWeights(c *Conv3D, gradOut *tensor.Tensor) {
	c.weightGradGEMM(gradOut)
}

func (gemmBackend) ConvBackwardInput(c *Conv3D, gradOut, gradIn *tensor.Tensor) {
	c.inputGradGEMM(gradOut, gradIn)
}

func (gemmBackend) TransposeForward(t *ConvTranspose3D, x, out *tensor.Tensor) {
	t.forwardGEMMInto(x, out)
}

func (gemmBackend) TransposeBackward(t *ConvTranspose3D, gradOut, gradIn *tensor.Tensor) {
	t.backwardGEMMInto(gradOut, gradIn)
}
