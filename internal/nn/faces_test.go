package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// fullPatchProduct is convGEMM's product with every kernel tap multiplied:
// wmat ([m, ch·K³]) times the patch matrix of each sample of x, padded into
// a zero halo, without face classes, plus bias where set.
func fullPatchProduct(wmat []float32, m, k int, x *tensor.Tensor, bias []float32) []float32 {
	n, ch, d, h, w := check5D("test", x)
	g := newHaloGeom(d, h, w, k/2)
	halo := make([]float32, n*ch*g.vol)
	padHalo(halo, x.Data(), n*ch, g, 1)
	var tables []int
	patchMatrix(g, ch, k, &tables)
	cols, kdim := d*h*w, ch*k*k*k
	full := gemm.NewGathered(tables[:kdim], tables[kdim:kdim+cols/4], 4)
	out := make([]float32, n*m*cols)
	gemm.GemmBatch(new(tensor.Workspace), n, false, m, cols, kdim, wmat, kdim, 0, full.Operand(halo, ch*g.vol),
		false, gemm.Epilogue{Bias: bias}, gemm.Into(out, cols, m*cols), 1)
	return out
}

// TestConvGatherClassesAcrossShapes runs a 3³ convolution's three passes
// that skip the border taps of the panels on a volume's faces — the
// forward from a plain tensor (copied into a halo), Infer's from a
// bordered buffer read in place, and the input gradient — at extents whose
// 16-voxel panels are one row, part of a row, several rows or several
// planes: w ∈ {4, 8, 12, 16, 20}, d, h ∈ {1, 2, 3, 16}. Each is held bit for
// bit to the product over every tap (fullPatchProduct) and, within
// TestConvParity's bounds, to the direct reference. K crosses a kcBlock
// slice in the forward pass (15·27 = 405).
func TestConvGatherClassesAcrossShapes(t *testing.T) {
	const n, inC, outC, k = 2, 15, 4, 3
	for _, w := range []int{4, 8, 12, 16, 20, 32} {
		for _, d := range []int{1, 2, 3, 16} {
			for _, h := range []int{1, 2, 3, 16} {
				t.Run(fmt.Sprintf("%dx%dx%d", d, h, w), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*d + 10*h + w)))
					x := randTensor(rng, n, inC, d, h, w)
					gradOut := randTensor(rng, n, outC, d, h, w)
					c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(5)))
					c.SetWorkers(2)
					wd := c.W.Value.Data()
					for i := range c.B.Value.Data() {
						c.B.Value.Data()[i] = float32(rng.NormFloat64())
					}

					want := fullPatchProduct(wd, outC, k, x, c.B.Value.Data())
					fwd := c.Forward(x).Data()
					sameBitsAs(t, "forward", fwd, want)

					var buf HaloBuffer
					hx := buf.Shaped(n, inC, d, h, w, k/2, 2)
					g := hx.geom()
					for i := range n * inC {
						for z := range d {
							for y := range h {
								copy(hx.Buf.Data()[i*g.vol+g.interior()+(z*g.hp+y)*g.wp:][:w], x.Data()[((i*d+z)*h+y)*w:][:w])
							}
						}
					}
					inf := tensor.New(n, outC, d, h, w)
					c.forward(hx, Whole(inf), gemm.Norm{})
					sameBitsAs(t, "Infer in place", inf.Data(), want)

					kk := k * k * k
					flipped := make([]float32, inC*outC*kk)
					for ic := range inC {
						for oc := range outC {
							for tap := range kk {
								flipped[(ic*outC+oc)*kk+tap] = wd[(oc*inC+ic)*kk+kk-1-tap]
							}
						}
					}
					gradIn := c.Backward(gradOut).Data()
					sameBitsAs(t, "input grad", gradIn, fullPatchProduct(flipped, inC, k, gradOut, nil))

					ref := NewConv3D("ref", inC, outC, k, rand.New(rand.NewSource(5)))
					copy(ref.B.Value.Data(), c.B.Value.Data())
					assertWithinULP(t, "forward vs reference", 2, ref.forwardSerial(x).Data(), fwd, forwardMaxULP)
					assertWithinULP(t, "input grad vs reference", 2, ref.backwardSerial(gradOut).Data(), gradIn, backwardMaxULP)
				})
			}
		}
	}
}

// sameBitsAs fails unless got is want bit for bit.
func sameBitsAs(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, every tap multiplied gives %v (bit for bit)", what, i, got[i], want[i])
		}
	}
}
