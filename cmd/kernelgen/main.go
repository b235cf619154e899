// Command kernelgen emits the shape-specialized convolution kernels of the
// "generated" conv backend into internal/nn/generated (checked in; CI fails
// if the output drifts from the committed files).
//
// The paper's workload is a fixed 3D U-Net, so every convolution layer shape
// — (kernel, stride, input channels, output channels) — is known at build
// time (unet.PaperConfig().ConvShapes()). For each shape the generator
// unrolls the channel and kernel-tap loops into fixed-bound Go the compiler
// can keep in registers, the pure-Go counterpart of a SIMD micro-kernel:
//
//   - 1×1×1 convolutions (the sigmoid head) become one IC-term dot-product
//     expression per output voxel with every weight held in a local.
//   - 3×3×3 body convolutions get an interior fast path with all 27 taps
//     unrolled against nine hoisted row slices per input channel; boundary
//     rows and columns fall back to a shared guarded helper.
//   - 2×2×2 stride-2 up-convolutions are rewritten from scatter form into
//     one IC-term gather expression per output voxel (windows do not
//     overlap, so each output element has exactly one source tap).
//
// Every emitted kernel partitions work over single-owner output slabs with a
// fixed per-element accumulation order, so results are bit-for-bit
// worker-count invariant, as the backend registry requires. Shapes with no
// template (and any non-U-Net shape at runtime) fall back to the gemm
// backend through the registry's resolution chain; the backward passes
// delegate to gemm outright.
//
// Usage:
//
//	go run ./cmd/kernelgen [-dir internal/nn/generated]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/nn"
	"repro/internal/unet"
)

const header = `// Code generated by kernelgen. DO NOT EDIT.
//
// Emitted from the paper U-Net's layer-shape table
// (unet.PaperConfig().ConvShapes()). Regenerate with:
//
//	go run ./cmd/kernelgen

`

func main() {
	log.SetFlags(0)
	dir := flag.String("dir", filepath.Join("internal", "nn", "generated"), "output directory for the generated package")
	flag.Parse()

	specs := unet.PaperConfig().ConvShapes()
	var conv1s, conv3s, up2s []nn.ConvSpec
	for _, s := range specs {
		switch {
		case !s.Transposed && s.Kernel == 1 && s.Stride == 1:
			conv1s = append(conv1s, s)
		case !s.Transposed && s.Kernel == 3 && s.Stride == 1:
			conv3s = append(conv3s, s)
		case s.Transposed && s.Kernel == 2 && s.Stride == 2:
			up2s = append(up2s, s)
		default:
			log.Printf("kernelgen: no template for %s; it falls back to gemm at runtime", s)
		}
	}
	log.Printf("kernelgen: %d conv1 + %d conv3 + %d up2 shapes", len(conv1s), len(conv3s), len(up2s))

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("kernelgen: %v", err)
	}
	write := func(name string, src []byte) {
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			log.Fatalf("kernelgen: %v", err)
		}
		log.Printf("kernelgen: wrote %s", path)
	}
	write("backend.go", genBackend(conv1s, conv3s, up2s))
	write("conv1.go", genConv1(conv1s))
	write("conv3.go", genConv3(conv3s))
	write("up2.go", genUp2(up2s))
}

func conv1Name(s nn.ConvSpec) string { return fmt.Sprintf("conv1Fwd%dx%d", s.InC, s.OutC) }
func conv3Name(s nn.ConvSpec) string { return fmt.Sprintf("conv3Fwd%dx%d", s.InC, s.OutC) }
func up2Name(s nn.ConvSpec) string   { return fmt.Sprintf("up2Fwd%dx%d", s.InC, s.OutC) }

func gofmt(src []byte) []byte {
	out, err := format.Source(src)
	if err != nil {
		log.Fatalf("kernelgen: generated source does not parse: %v\n%s", err, src)
	}
	return out
}

// genBackend emits the registry glue: the backend type, its registration,
// the per-shape dispatch tables, and the shared guarded helpers the conv3
// kernels use on volume boundaries.
func genBackend(conv1s, conv3s, up2s []nn.ConvSpec) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString(`// Package generated holds shape-specialized convolution kernels emitted by
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
`)
	for _, s := range conv1s {
		fmt.Fprintf(&b, "\t{Kernel: 1, Stride: 1, InC: %d, OutC: %d}: %s,\n", s.InC, s.OutC, conv1Name(s))
	}
	for _, s := range conv3s {
		fmt.Fprintf(&b, "\t{Kernel: 3, Stride: 1, InC: %d, OutC: %d}: %s,\n", s.InC, s.OutC, conv3Name(s))
	}
	b.WriteString("}\n\nvar transposeKernels = map[nn.ConvSpec]transposeKernel{\n")
	for _, s := range up2s {
		fmt.Fprintf(&b, "\t{Transposed: true, Kernel: 2, Stride: 2, InC: %d, OutC: %d}: %s,\n", s.InC, s.OutC, up2Name(s))
	}
	b.WriteString(`}

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
`)
	return gofmt(b.Bytes())
}

// genConv1 emits the 1×1×1 kernels: per output voxel one IC-term dot product
// with all weights in locals, bias first and channels ascending (the serial
// reference's order). Work items are (sample × z-plane) rows across all
// output channels; every output element has a single owner.
func genConv1(specs []nn.ConvSpec) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package generated\n\nimport (\n\t\"fmt\"\n\n\t\"repro/internal/nn\"\n\t\"repro/internal/parallel\"\n\t\"repro/internal/tensor\"\n)\n")
	for _, s := range specs {
		ic, oc := s.InC, s.OutC
		name := conv1Name(s)
		fmt.Fprintf(&b, `
// %s is the specialized 1×1×1 convolution forward for %d -> %d channels.
func %s(c *nn.Conv3D, x, out *tensor.Tensor, workers int) {
	n, ci, d, h, w := dims5(x)
	if ci != %d {
		panic(fmt.Sprintf("generated: conv1 %d->%d got %%d input channels", ci))
	}
	hw := h * w
	vox := d * hw
	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()
	parallel.ForWorkers(workers, n*d, 1, func(lo, hi int) {
		for item := lo; item < hi; item++ {
			ni := item / d
			z := item - ni*d
			base := ni*%d*vox + z*hw
`, name, ic, oc, name, ic, ic, oc, ic)
		for i := 0; i < ic; i++ {
			fmt.Fprintf(&b, "\t\t\tx%d := xd[base+%d*vox:][:hw]\n", i, i)
		}
		fmt.Fprintf(&b, "\t\t\tfor oci := 0; oci < %d; oci++ {\n", oc)
		for i := 0; i < ic; i++ {
			fmt.Fprintf(&b, "\t\t\t\tw%d := wd[oci*%d+%d]\n", i, ic, i)
		}
		fmt.Fprintf(&b, "\t\t\t\tbias := bd[oci]\n")
		fmt.Fprintf(&b, "\t\t\t\torow := od[(ni*%d+oci)*vox+z*hw:][:hw]\n", oc)
		b.WriteString("\t\t\t\tfor i := range orow {\n\t\t\t\t\torow[i] = bias")
		for i := 0; i < ic; i++ {
			fmt.Fprintf(&b, " + x%d[i]*w%d", i, i)
		}
		b.WriteString("\n\t\t\t\t}\n\t\t\t}\n\t\t}\n\t})\n}\n")
	}
	return gofmt(b.Bytes())
}

// genConv3 emits the 3×3×3 kernels: interior rows accumulate one input
// channel at a time with all 27 taps unrolled against nine hoisted row
// slices (per-element order is fixed — bias, then channels ascending — so
// results are worker-invariant; the per-channel 27-term chain reassociates
// the serial sum within the registry's ULP bounds). Boundary rows and the
// two edge columns of interior rows go through the shared guarded helpers.
func genConv3(specs []nn.ConvSpec) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package generated\n\nimport (\n\t\"fmt\"\n\n\t\"repro/internal/nn\"\n\t\"repro/internal/parallel\"\n\t\"repro/internal/tensor\"\n)\n")
	for _, s := range specs {
		ic, oc := s.InC, s.OutC
		name := conv3Name(s)
		fmt.Fprintf(&b, `
// %s is the specialized 3×3×3 convolution forward for %d -> %d channels.
func %s(c *nn.Conv3D, x, out *tensor.Tensor, workers int) {
	n, ci, d, h, w := dims5(x)
	if ci != %d {
		panic(fmt.Sprintf("generated: conv3 %d->%d got %%d input channels", ci))
	}
	hw := h * w
	vox := d * hw
	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()
	parallel.ForWorkers(workers, n*%d*d, 1, func(lo, hi int) {
		for item := lo; item < hi; item++ {
			slab := item / d
			z := item - slab*d
			ni := slab / %d
			oci := slab - ni*%d
			inBase := ni * %d * vox
			wBase := oci * %d
			oBase := slab*vox + z*hw
			bias := bd[oci]
			if z == 0 || z == d-1 {
				for y := 0; y < h; y++ {
					conv3RowGeneric(xd, wd, od[oBase+y*w:][:w], inBase, wBase, %d, vox, hw, d, h, w, z, y, bias)
				}
				continue
			}
			for y := 0; y < h; y++ {
				orow := od[oBase+y*w:][:w]
				if y == 0 || y == h-1 {
					conv3RowGeneric(xd, wd, orow, inBase, wBase, %d, vox, hw, d, h, w, z, y, bias)
					continue
				}
				for i := range orow {
					orow[i] = bias
				}
				base0 := inBase + (z-1)*hw + (y-1)*w
				for icI := 0; icI < %d; icI++ {
					base := base0 + icI*vox
					r0 := xd[base:][:w]
					r1 := xd[base+w:][:w]
					r2 := xd[base+2*w:][:w]
					r3 := xd[base+hw:][:w]
					r4 := xd[base+hw+w:][:w]
					r5 := xd[base+hw+2*w:][:w]
					r6 := xd[base+2*hw:][:w]
					r7 := xd[base+2*hw+w:][:w]
					r8 := xd[base+2*hw+2*w:][:w]
					wr := wd[wBase+icI*27:][:27]
`, name, ic, oc, name, ic, ic, oc, oc, oc, oc, ic, ic*27, ic, ic, ic)
		for i := 0; i < 27; i++ {
			fmt.Fprintf(&b, "\t\t\t\t\tw%d := wr[%d]\n", i, i)
		}
		b.WriteString("\t\t\t\t\tfor xx := 1; xx < w-1; xx++ {\n\t\t\t\t\t\torow[xx] += ")
		b.WriteString(chain27())
		fmt.Fprintf(&b, `
					}
				}
				orow[0] = conv3Voxel(xd, wd, inBase, wBase, %d, vox, hw, d, h, w, z, y, 0, bias)
				orow[w-1] = conv3Voxel(xd, wd, inBase, wBase, %d, vox, hw, d, h, w, z, y, w-1, bias)
			}
		}
	})
}
`, ic, ic)
	}
	return gofmt(b.Bytes())
}

// chain27 builds the unrolled 27-tap accumulation expression of the conv3
// interior loop: rows r0..r8 are the (kz, ky) input rows, weights w0..w26
// follow the kernel's (kz, ky, kx) storage order.
func chain27() string {
	var sb strings.Builder
	for r := 0; r < 9; r++ {
		if r > 0 {
			sb.WriteString(" +\n\t\t\t\t\t\t\t")
		}
		for k := 0; k < 3; k++ {
			if k > 0 {
				sb.WriteString(" + ")
			}
			off := [3]string{"xx-1", "xx", "xx+1"}[k]
			fmt.Fprintf(&sb, "r%d[%s]*w%d", r, off, r*3+k)
		}
	}
	return sb.String()
}

// genUp2 emits the 2×2×2 stride-2 transposed-convolution kernels in gather
// form: windows do not overlap, so every output voxel is bias plus one
// IC-term dot product at a single kernel tap — no scatter, no zero-skip.
// Work items are (sample × output-channel) slabs; per slab the eight taps
// each stream the input once with their IC weights held in locals.
func genUp2(specs []nn.ConvSpec) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package generated\n\nimport (\n\t\"fmt\"\n\n\t\"repro/internal/nn\"\n\t\"repro/internal/parallel\"\n\t\"repro/internal/tensor\"\n)\n")
	for _, s := range specs {
		ic, oc := s.InC, s.OutC
		name := up2Name(s)
		fmt.Fprintf(&b, `
// %s is the specialized 2×2×2 stride-2 up-convolution forward for
// %d -> %d channels.
func %s(t *nn.ConvTranspose3D, x, out *tensor.Tensor, workers int) {
	n, ci, d, h, w := dims5(x)
	if ci != %d {
		panic(fmt.Sprintf("generated: up2 %d->%d got %%d input channels", ci))
	}
	hw := h * w
	vox := d * hw
	oh, ow := h*2, w*2
	outCh := vox * 8
	xd := x.Data()
	od := out.Data()
	wd := t.W.Value.Data()
	bd := t.B.Value.Data()
	parallel.ForWorkers(workers, n*%d, 1, func(lo, hi int) {
		for slab := lo; slab < hi; slab++ {
			ni := slab / %d
			oci := slab - ni*%d
			iBase := ni * %d * vox
			oBase := slab * outCh
			bias := bd[oci]
			for tap := 0; tap < 8; tap++ {
				kz, ky, kx := tap>>2, (tap>>1)&1, tap&1
`, name, ic, oc, name, ic, ic, oc, oc, oc, oc, ic)
		for i := 0; i < ic; i++ {
			fmt.Fprintf(&b, "\t\t\t\twt%d := wd[%d+oci*8+tap]\n", i, i*oc*8)
		}
		b.WriteString("\t\t\t\tfor z := 0; z < d; z++ {\n\t\t\t\t\tfor y := 0; y < h; y++ {\n\t\t\t\t\t\trow := iBase + (z*h+y)*w\n")
		for i := 0; i < ic; i++ {
			if i == 0 {
				b.WriteString("\t\t\t\t\t\ts0 := xd[row:][:w]\n")
			} else {
				fmt.Fprintf(&b, "\t\t\t\t\t\ts%d := xd[row+%d*vox:][:w]\n", i, i)
			}
		}
		b.WriteString("\t\t\t\t\t\tdst := od[oBase+((z*2+kz)*oh+y*2+ky)*ow+kx:]\n")
		b.WriteString("\t\t\t\t\t\tfor xx := 0; xx < w; xx++ {\n\t\t\t\t\t\t\tdst[xx*2] = bias")
		for i := 0; i < ic; i++ {
			fmt.Fprintf(&b, " + s%d[xx]*wt%d", i, i)
		}
		b.WriteString("\n\t\t\t\t\t\t}\n\t\t\t\t\t}\n\t\t\t\t}\n\t\t\t}\n\t\t}\n\t})\n}\n")
	}
	return gofmt(b.Bytes())
}
