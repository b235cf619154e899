// Code generated by kernelgen. DO NOT EDIT.
//
// Emitted from the paper U-Net's layer-shape table
// (unet.PaperConfig().ConvShapes()). Regenerate with:
//
//	go run ./cmd/kernelgen

// Package generated holds shape-specialized convolution kernels emitted by
// cmd/kernelgen for the paper U-Net's fixed layer-shape table. Importing the
// package (for side effects) registers the "generated" conv backend: the
// forward passes of the specialized shapes run the unrolled fixed-bound
// kernels in this package, every other shape and all backward passes
// delegate to the gemm backend through the registry. Like every backend,
// the kernels are bit-for-bit worker-count invariant (single-owner output
// partitions, fixed per-element accumulation order).
package generated

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Engine is the registry id of the generated backend.
var Engine = nn.Register("generated", backend{})

type convKernel func(c *nn.Conv3D, x, out *tensor.Tensor, workers int)

type transposeKernel func(t *nn.ConvTranspose3D, x, out *tensor.Tensor, workers int)

var convKernels = map[nn.ConvSpec]convKernel{
	{Kernel: 1, Stride: 1, InC: 8, OutC: 1}:   conv1Fwd8x1,
	{Kernel: 3, Stride: 1, InC: 4, OutC: 8}:   conv3Fwd4x8,
	{Kernel: 3, Stride: 1, InC: 8, OutC: 8}:   conv3Fwd8x8,
	{Kernel: 3, Stride: 1, InC: 8, OutC: 16}:  conv3Fwd8x16,
	{Kernel: 3, Stride: 1, InC: 16, OutC: 16}: conv3Fwd16x16,
	{Kernel: 3, Stride: 1, InC: 16, OutC: 32}: conv3Fwd16x32,
	{Kernel: 3, Stride: 1, InC: 32, OutC: 32}: conv3Fwd32x32,
	{Kernel: 3, Stride: 1, InC: 32, OutC: 64}: conv3Fwd32x64,
	{Kernel: 3, Stride: 1, InC: 64, OutC: 64}: conv3Fwd64x64,
	{Kernel: 3, Stride: 1, InC: 96, OutC: 32}: conv3Fwd96x32,
	{Kernel: 3, Stride: 1, InC: 48, OutC: 16}: conv3Fwd48x16,
	{Kernel: 3, Stride: 1, InC: 24, OutC: 8}:  conv3Fwd24x8,
}

var transposeKernels = map[nn.ConvSpec]transposeKernel{
	{Transposed: true, Kernel: 2, Stride: 2, InC: 64, OutC: 64}: up2Fwd64x64,
	{Transposed: true, Kernel: 2, Stride: 2, InC: 32, OutC: 32}: up2Fwd32x32,
	{Transposed: true, Kernel: 2, Stride: 2, InC: 16, OutC: 16}: up2Fwd16x16,
}

type backend struct{}

func (backend) Name() string { return "generated" }

// Supports reports whether a specialized kernel exists for the shape; the
// registry routes unsupported shapes to gemm.
func (backend) Supports(spec nn.ConvSpec) bool {
	if spec.Transposed {
		_, ok := transposeKernels[spec]
		return ok
	}
	_, ok := convKernels[spec]
	return ok
}

// gemmDelegate is the generic backend the backward passes run on: they need
// nothing from the forward but the input the layer itself retains.
func gemmDelegate() nn.Backend {
	b, ok := nn.BackendByName("gemm")
	if !ok {
		panic("generated: gemm backend not registered")
	}
	return b
}

func (backend) ConvForward(c *nn.Conv3D, x, out *tensor.Tensor) {
	convKernels[c.Spec()](c, x, out, c.Workers())
}

func (backend) ConvBackwardWeights(c *nn.Conv3D, gradOut *tensor.Tensor) {
	gemmDelegate().ConvBackwardWeights(c, gradOut)
}

func (backend) ConvBackwardInput(c *nn.Conv3D, gradOut, gradIn *tensor.Tensor) {
	gemmDelegate().ConvBackwardInput(c, gradOut, gradIn)
}

func (backend) TransposeForward(t *nn.ConvTranspose3D, x, out *tensor.Tensor) {
	transposeKernels[t.Spec()](t, x, out, t.Workers())
}

func (backend) TransposeBackward(t *nn.ConvTranspose3D, gradOut, gradIn *tensor.Tensor) {
	gemmDelegate().TransposeBackward(t, gradOut, gradIn)
}

func dims5(t *tensor.Tensor) (n, c, d, h, w int) {
	s := t.Shape()
	return s[0], s[1], s[2], s[3], s[4]
}

// conv3Voxel computes one output voxel of a 3³ same-padded stride-1
// convolution with boundary guards — the shared slow path of the conv3
// kernels for voxels whose 27-tap window leaves the volume. Accumulation is
// bias first, then input channels ascending with taps in (kz, ky, kx) order,
// matching the serial reference exactly.
func conv3Voxel(xd, wd []float32, inBase, wBase, ic, vox, hw, d, h, w, z, y, xx int, bias float32) float32 {
	acc := bias
	for icI := 0; icI < ic; icI++ {
		cb := inBase + icI*vox
		wb := wBase + icI*27
		for kz := 0; kz < 3; kz++ {
			iz := z + kz - 1
			if iz < 0 || iz >= d {
				continue
			}
			for ky := 0; ky < 3; ky++ {
				iy := y + ky - 1
				if iy < 0 || iy >= h {
					continue
				}
				row := cb + iz*hw + iy*w
				wrow := wb + kz*9 + ky*3
				for kx := 0; kx < 3; kx++ {
					ix := xx + kx - 1
					if ix < 0 || ix >= w {
						continue
					}
					acc += xd[row+ix] * wd[wrow+kx]
				}
			}
		}
	}
	return acc
}

// conv3RowGeneric fills one output row through conv3Voxel — used for rows on
// the volume boundary, where no interior fast path applies.
func conv3RowGeneric(xd, wd, orow []float32, inBase, wBase, ic, vox, hw, d, h, w, z, y int, bias float32) {
	for xx := 0; xx < w; xx++ {
		orow[xx] = conv3Voxel(xd, wd, inBase, wBase, ic, vox, hw, d, h, w, z, y, xx, bias)
	}
}
