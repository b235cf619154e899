package nn

import "repro/internal/tensor"

// directBackend runs the original 7-deep loop kernels on the parallel worker
// pool. Every partition is single-owner and accumulates in exactly the serial
// reference's order, so its outputs and gradients are bit-for-bit identical
// to the serial kernels at any worker budget — the golden backend the parity
// tests measure every other backend against. It supports every shape and
// terminates the fallback chain.
type directBackend struct{}

func (directBackend) Name() string { return "direct" }

func (directBackend) Supports(ConvSpec) bool { return true }

func (directBackend) ConvForward(c *Conv3D, x, out *tensor.Tensor) {
	c.forwardDirectInto(x, out)
}

func (directBackend) ConvBackwardWeights(c *Conv3D, gradOut *tensor.Tensor) {
	c.weightGradDirect(gradOut)
}

func (directBackend) ConvBackwardInput(c *Conv3D, gradOut, gradIn *tensor.Tensor) {
	c.inputGradDirect(gradOut, gradIn)
}

func (directBackend) TransposeForward(t *ConvTranspose3D, x, out *tensor.Tensor) {
	t.forwardDirectInto(x, out)
}

func (directBackend) TransposeBackward(t *ConvTranspose3D, gradOut, gradIn *tensor.Tensor) {
	t.backwardDirectInto(gradOut, gradIn)
}
