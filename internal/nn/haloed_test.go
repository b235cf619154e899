package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Tests for the haloed Infer passes: a layer that reads its input from, or
// stores its output into, the interiors of a bordered buffer must compute
// what its plain InferInto computes, and touch nothing else of the buffer.

// haloedOf places x ([n, c, d, h, w]) as channels [c0, c0+c) of a fresh
// [n, cb, d+2p, h+2p, w+2p] buffer: zero in every border, fill in the
// interiors of the other channels.
func haloedOf(x *tensor.Tensor, cb, c0, p int, fill float32) Haloed {
	n, c, d, h, w := check5D("haloedOf", x)
	a := Haloed{Buf: tensor.New(n, cb, d+2*p, h+2*p, w+2*p), C0: c0, C: c, P: p}
	g := a.geom()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < cb; ci++ {
			forInterior(g, func(i, v int) {
				at := (ni*cb+ci)*g.vol + i
				if ci < c0 || ci >= c0+c {
					a.Buf.Data()[at] = fill
					return
				}
				a.Buf.Data()[at] = x.Data()[((ni*c)+ci-c0)*d*h*w+v]
			})
		}
	}
	return a
}

// forInterior calls fn with the offset in a plane of every interior voxel
// and the voxel's index in a plain volume.
func forInterior(g haloGeom, fn func(i, v int)) {
	for z := 0; z < g.d; z++ {
		for y := 0; y < g.h; y++ {
			for x := 0; x < g.w; x++ {
				fn(g.interior()+(z*g.hp+y)*g.wp+x, (z*g.h+y)*g.w+x)
			}
		}
	}
}

// checkHaloed asserts that the activation a holds is want bit for bit, that
// every border of its buffer is zero and every other channel's interior
// still fill.
func checkHaloed(t *testing.T, what string, a Haloed, want *tensor.Tensor, fill float32) {
	t.Helper()
	n, cb := a.Buf.Dim(0), a.Buf.Dim(1)
	g := a.geom()
	interior := make([]int, g.vol) // plain voxel index + 1 of each interior offset
	forInterior(g, func(i, v int) { interior[i] = v + 1 })
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < cb; ci++ {
			for i, at := range interior {
				got := a.Buf.Data()[(ni*cb+ci)*g.vol+i]
				switch {
				case at == 0:
					if math.Float32bits(got) != 0 {
						t.Fatalf("%s: sample %d channel %d border offset %d = %v, want +0", what, ni, ci, i, got)
					}
				case ci < a.C0 || ci >= a.C0+a.C:
					if math.Float32bits(got) != math.Float32bits(fill) {
						t.Fatalf("%s: sample %d channel %d, outside the activation, = %v, want %v untouched", what, ni, ci, got, fill)
					}
				default:
					w := want.Data()[(ni*a.C+ci-a.C0)*g.d*g.h*g.w+at-1]
					if math.Float32bits(got) != math.Float32bits(w) {
						t.Fatalf("%s: sample %d channel %d voxel %d = %v, want %v (bit for bit)", what, ni, ci-a.C0, at-1, got, w)
					}
				}
			}
		}
	}
}

// TestHaloedInferWorkerCountInvariant holds each haloed Infer pass to its
// plain InferInto at worker budgets 1, 2 and 4: the convolution block from a
// haloed window or a whole tensor into a haloed window or a whole tensor,
// the pooling between haloed windows, and the up-convolution into a haloed
// window. The destination's window starts NaN, so every element must be
// written; its borders must stay zero and its other channels untouched.
// The shapes take every store the GEMM has into a haloed buffer: volume
// rows a multiple of 16 and of 4 wide (the assembly's step-1 and step-2
// scattered stores), rows of 7 and 3 (one voxel a run, the Go store), a
// 2-voxel volume (ragged tiles only), and 16 input channels, whose K
// (432) spills into a second slice that adds onto the stored first.
func TestHaloedInferWorkerCountInvariant(t *testing.T) {
	const fill = 7.25
	nan := float32(math.NaN())
	withStats := func(b *ConvBNReLU, rng *rand.Rand) *ConvBNReLU {
		for i := range b.BN.RunningMean {
			b.BN.RunningMean[i] = rng.NormFloat64() * 0.1
			b.BN.RunningVar[i] = 0.5 + rng.Float64()
		}
		return b
	}
	blocks := []struct {
		inC, outC, n, d, h, w int
	}{
		{3, 8, 3, 4, 4, 16},
		{3, 8, 2, 3, 5, 8},
		{2, 4, 2, 3, 4, 7},
		{16, 8, 2, 3, 4, 16},
		{4, 8, 3, 1, 2, 1},
	}
	for _, s := range blocks {
		for _, srcHalo := range []bool{true, false} {
			for _, dstHalo := range []bool{true, false} {
				name := fmt.Sprintf("ConvBNReLU_%dto%d_n%d_%dx%dx%d_srchalo%v_dsthalo%v", s.inC, s.outC, s.n, s.d, s.h, s.w, srcHalo, dstHalo)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(s.inC*100 + s.w)))
					b := withStats(NewConvBNReLU("b", s.inC, s.outC, 3, rng), rng)
					x := randTensor(rng, s.n, s.inC, s.d, s.h, s.w)
					want := b.InferInto(x, tensor.New(s.n, s.outC, s.d, s.h, s.w))
					for _, workers := range []int{1, 2, 4} {
						b.SetWorkers(workers)
						src := Whole(x)
						if srcHalo {
							src = haloedOf(x, s.inC+3, 2, 1, fill)
						}
						dst := Whole(tensor.Full(nan, s.n, s.outC, s.d, s.h, s.w))
						if dstHalo {
							dst = haloedOf(tensor.Full(nan, s.n, s.outC, s.d, s.h, s.w), s.outC+2, 1, 1, fill)
						}
						b.InferHaloed(src, dst)
						checkHaloed(t, fmt.Sprintf("workers=%d", workers), dst, want, fill)
					}
				})
			}
		}
	}
	pools := []struct{ c, n, d, h, w int }{{4, 2, 4, 4, 16}, {3, 3, 2, 6, 6}}
	for _, s := range pools {
		t.Run(fmt.Sprintf("MaxPool3D_c%d_n%d_%dx%dx%d", s.c, s.n, s.d, s.h, s.w), func(t *testing.T) {
			x := randTensor(rand.New(rand.NewSource(int64(s.w))), s.n, s.c, s.d, s.h, s.w)
			m := NewMaxPool3D(2)
			want := m.Infer(x)
			for _, workers := range []int{1, 2, 4} {
				m.SetWorkers(workers)
				dst := haloedOf(tensor.Full(nan, want.Shape()...), s.c+1, 1, 1, fill)
				m.InferHaloed(haloedOf(x, s.c+2, 2, 1, fill), dst)
				checkHaloed(t, fmt.Sprintf("workers=%d", workers), dst, want, fill)
			}
		})
	}
	ups := []struct{ ic, oc, n, d, h, w int }{{8, 4, 2, 2, 2, 4}, {4, 4, 3, 2, 3, 3}, {8, 8, 2, 1, 1, 1}}
	for _, s := range ups {
		t.Run(fmt.Sprintf("ConvTranspose3D_%dto%d_n%d_%dx%dx%d", s.ic, s.oc, s.n, s.d, s.h, s.w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(s.ic + s.w)))
			c := NewConvTranspose3D("up", s.ic, s.oc, 2, rng)
			for i := range c.B.Value.Data() {
				c.B.Value.Data()[i] = float32(rng.NormFloat64())
			}
			x := randTensor(rng, s.n, s.ic, s.d, s.h, s.w)
			want := c.Infer(x)
			for _, workers := range []int{1, 2, 4} {
				c.SetWorkers(workers)
				dst := haloedOf(tensor.Full(nan, want.Shape()...), s.oc+3, 2, 1, fill)
				c.InferHaloed(x, dst)
				checkHaloed(t, fmt.Sprintf("workers=%d", workers), dst, want, fill)
			}
		})
	}
}

// TestHaloBufferBordersAcrossLayouts: a HaloBuffer hands out every layout
// with zero borders, whatever the layouts before it wrote into their
// interiors — a smaller volume whose interiors cover part of the larger
// one's borders, a larger one over the smaller's, more planes of the same
// extents, a plain layout in between, more geometries than it remembers —
// and clears nothing while the layout repeats, so interiors written then
// survive.
func TestHaloBufferBordersAcrossLayouts(t *testing.T) {
	var b HaloBuffer
	layouts := [][6]int{
		{2, 3, 6, 6, 6, 1}, {1, 4, 3, 3, 3, 1}, {2, 3, 6, 6, 6, 1}, {3, 3, 6, 6, 6, 1},
		{2, 2, 5, 6, 7, 0}, {2, 3, 6, 6, 6, 1}, {1, 2, 4, 4, 4, 2}, {3, 3, 6, 6, 6, 1},
		// Fewer planes of the same extents after another geometry wrote far
		// past them, then more again.
		{4, 1, 6, 6, 6, 1}, {1, 4, 7, 7, 7, 1}, {1, 1, 6, 6, 6, 1}, {4, 1, 6, 6, 6, 1},
	}
	for k := 2; k <= maxHaloLayouts+2; k++ {
		layouts = append(layouts, [6]int{1, 2, k, k, k + 1, 1})
	}
	layouts = append(layouts, [6]int{3, 3, 6, 6, 6, 1}, [6]int{1, 2, 2, 2, 3, 1}, [6]int{1, 3, 6, 6, 6, 1})
	for i, l := range layouts {
		a := b.Shaped(l[0], l[1], l[2], l[3], l[4], l[5], 2)
		n, c, d, h, w := a.shape("test")
		if n != l[0] || c != l[1] || d != l[2] || h != l[3] || w != l[4] || a.P != l[5] {
			t.Fatalf("layout %d: got [%d %d %d %d %d] border %d, want %v", i, n, c, d, h, w, a.P, l)
		}
		interior := tensor.Full(float32(i+1), n, c, d, h, w)
		checkHaloed(t, fmt.Sprintf("layout %d", i), a, interiorOf(a), 0)
		// Every interior written, as a producer would.
		fillHaloed(a, interior)
		if again := b.Shaped(l[0], l[1], l[2], l[3], l[4], l[5], 2); again.Buf != a.Buf {
			t.Fatalf("layout %d: a repeated layout got a new tensor", i)
		}
		checkHaloed(t, fmt.Sprintf("layout %d repeated", i), a, interior, 0)
	}
}

// interiorOf copies the activation a holds out of its buffer.
func interiorOf(a Haloed) *tensor.Tensor {
	n, c, d, h, w := a.shape("interiorOf")
	out := tensor.New(n, c, d, h, w)
	g := a.geom()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*a.Buf.Dim(1) + a.C0 + ci) * g.vol
			forInterior(g, func(i, v int) { out.Data()[(ni*c+ci)*d*h*w+v] = a.Buf.Data()[base+i] })
		}
	}
	return out
}

// fillHaloed writes x into the interiors of a.
func fillHaloed(a Haloed, x *tensor.Tensor) {
	n, c, d, h, w := a.shape("fillHaloed")
	g := a.geom()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*a.Buf.Dim(1) + a.C0 + ci) * g.vol
			forInterior(g, func(i, v int) { a.Buf.Data()[base+i] = x.Data()[(ni*c+ci)*d*h*w+v] })
		}
	}
}
