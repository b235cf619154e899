package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gemm"
	"repro/internal/tensor"
)

// Tests for the patch-matrix-free GEMM convolution: the offset tables must
// hand the GEMM exactly the patch matrix's elements, and a layer that keeps
// nothing between passes must not care what happened before a pass.

// patchAt is the patch matrix by definition: the input element tap r reads
// for voxel v, zero where the tap leaves the volume.
func patchAt(x []float32, d, h, w, k, r, v int) float32 {
	p := k / 2
	kk := k * k * k
	ch, tap := r/kk, r%kk
	z := v/(h*w) + tap/(k*k) - p
	y := v/w%h + tap/k%k - p
	xx := v%w + tap%k - p
	if z < 0 || z >= d || y < 0 || y >= h || xx < 0 || xx >= w {
		return 0
	}
	return x[((ch*d+z)*h+y)*w+xx]
}

// TestHaloPackerMatchesNaiveGather multiplies the identity by the patch
// matrix, and by its transpose, through the GEMM exactly as the convolution
// hands them over — P as offset tables over the haloed copy, read in place
// or packed; Pᵀ as offset tables over the channels-last copy, read in place,
// with its (tap, c) columns and the zero padding channels — and compares
// each element of the product with the per-element definition. A product
// with the identity reproduces its other factor bit for bit, so an element
// the tables misaddress shows, and so does any read of the NaN the halo
// buffers start out as. The shapes are the ones a packer gets wrong first:
// odd extents, rows narrower than the kernel, rows that are a multiple of 4
// but not of the 16-wide panel, a K³·IC deeper than one K slice, a volume
// wider than one column block, a 1×1×1 kernel, and channel counts that
// leave one to three padding channels.
func TestHaloPackerMatchesNaiveGather(t *testing.T) {
	cases := []struct{ ch, k, d, h, w int }{
		{3, 3, 5, 6, 7},
		{2, 3, 4, 5, 1},
		{3, 3, 3, 2, 2},
		{2, 3, 3, 5, 12},
		{1, 5, 4, 4, 1},
		{4, 5, 5, 5, 8}, // 500 patch rows: two K slices forward, two column blocks transposed
		{1, 3, 4, 4, 4},
		{2, 3, 3, 5, 16},
		{2, 3, 3, 4, 20},
		{9, 3, 8, 8, 8},  // 512 voxels: two column blocks forward, two K slices transposed
		{2, 3, 3, 3, 36}, // 324 voxels: a ragged last panel of one quad
		{3, 1, 3, 4, 5},
		{9, 1, 2, 3, 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("ch%d_k%d_%dx%dx%d", tc.ch, tc.k, tc.d, tc.h, tc.w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			x := randTensor(rng, tc.ch, tc.d, tc.h, tc.w).Data()
			g := newHaloGeom(tc.d, tc.h, tc.w, tc.k/2)
			kk, voxels := tc.k*tc.k*tc.k, tc.d*tc.h*tc.w
			nans := func(n int) []float32 {
				buf := make([]float32, n)
				for i := range buf {
					buf[i] = float32(math.NaN()) // the copy must overwrite all of it
				}
				return buf
			}
			// identityTimes returns I·V for the kdim×n operand op.
			identityTimes := func(op gemm.Operand, kdim, n int) []float32 {
				eye := make([]float32, kdim*kdim)
				for i := 0; i < kdim; i++ {
					eye[i*kdim+i] = 1
				}
				got := make([]float32, kdim*n)
				gemm.GemmBatch(new(tensor.Workspace), 1, false, kdim, n, kdim, eye, kdim, 0, op,
					false, gemm.Epilogue{}, gemm.Into(got, n, 0), 2)
				return got
			}
			check := func(what string, got, want float32, i, j int) {
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s element (%d,%d) = %v, want %v", what, i, j, got, want)
				}
			}
			var tables []int

			halo := nans(tc.ch * g.vol)
			padHalo(halo, x, tc.ch, g, 2)
			patchRows := tc.ch * kk
			got := identityTimes(patchMatrix(g, tc.ch, tc.k, &tables).Operand(halo, 0), patchRows, voxels)
			for r := 0; r < patchRows; r++ {
				for v := 0; v < voxels; v++ {
					check("P", got[r*voxels+v], patchAt(x, tc.d, tc.h, tc.w, tc.k, r, v), r, v)
				}
			}

			cp := (tc.ch + 3) &^ 3
			last := nans(g.vol * cp)
			padChannelsLast(last, Whole(tensor.FromSlice(x, 1, tc.ch, tc.d, tc.h, tc.w)), 0, 1, cp, g, 2)
			n := kk * cp
			got = identityTimes(patchTransposed(g, cp, tc.k, &tables).Operand(last, 0), voxels, n)
			for v := 0; v < voxels; v++ {
				for j := 0; j < n; j++ {
					tap, c := j/cp, j%cp
					var want float32
					if c < tc.ch {
						want = patchAt(x, tc.d, tc.h, tc.w, tc.k, c*kk+tap, v)
					}
					check("Pᵀ", got[v*n+j], want, v, j)
				}
			}
		})
	}
}

// TestConvStepsAcrossShapeChange runs training steps through one layer at
// alternating batch sizes and extents (grow, shrink, grow) and checks every
// step's output and gradients against a fresh layer on the same data:
// nothing sized by one step may leak into the next.
func TestConvStepsAcrossShapeChange(t *testing.T) {
	shapes := []struct{ n, d, h, w int }{
		{1, 4, 4, 4},
		{2, 6, 5, 7},
		{1, 3, 3, 3},
		{2, 6, 5, 8},
	}
	const inC, outC, k = 3, 4, 3
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(12)))

	for step, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(100 + step)))
		x := randTensor(rng, sh.n, inC, sh.d, sh.h, sh.w)
		gradOut := randTensor(rng, sh.n, outC, sh.d, sh.h, sh.w)

		fresh := NewConv3D("fresh", inC, outC, k, rand.New(rand.NewSource(12)))

		ZeroGrads(c.Params())
		out := c.Forward(x)
		in := c.Backward(gradOut)
		wantOut := fresh.Forward(x)
		wantIn := fresh.Backward(gradOut)

		assertBitEqual(t, "forward after shape change", step, wantOut.Data(), out.Data())
		assertBitEqual(t, "input grad after shape change", step, wantIn.Data(), in.Data())
		assertBitEqual(t, "kernel grad after shape change", step, fresh.W.Grad.Data(), c.W.Grad.Data())
	}
}

// TestBackwardInputSeesUpdatedWeights changes the kernel between two steps,
// as an optimizer step or a model swap does, and checks the second step's
// input gradient is the one a layer built on the new kernel computes: the
// flipped kernel of backward-input is derived per call, never remembered.
func TestBackwardInputSeesUpdatedWeights(t *testing.T) {
	const inC, outC, k = 3, 4, 3
	rng := rand.New(rand.NewSource(8))
	x := randTensor(rng, 2, inC, 4, 5, 4)
	gradOut := randTensor(rng, 2, outC, 4, 5, 4)

	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(1)))
	c.Forward(x)
	stale := c.Backward(gradOut)

	updated := NewConv3D("updated", inC, outC, k, rand.New(rand.NewSource(2)))
	c.W.Value.CopyFrom(updated.W.Value)

	c.Forward(x)
	got := c.Backward(gradOut)
	updated.Forward(x)
	want := updated.Backward(gradOut)
	assertBitEqual(t, "input grad after a weight update", 0, want.Data(), got.Data())
	same := true
	for i, v := range stale.Data() {
		same = same && v == got.Data()[i]
	}
	if same {
		t.Fatal("the weight update did not change the input gradient: the test checks nothing")
	}
}

// TestTrainingStepScratchSteadyStateConv is the layer-local allocation
// contract: after a warm-up a forward/backward step takes every scratch
// buffer (halo copies, partials, the flipped kernel, packed weights and
// panels) from the layer's workspace without allocating, and gives them all
// back before returning.
func TestTrainingStepScratchSteadyStateConv(t *testing.T) {
	const inC, outC, k, n, dim = 4, 6, 3, 2, 8
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, n, inC, dim, dim, dim)
	gradOut := randTensor(rng, n, outC, dim, dim, dim)
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(4)))
	out, gradIn := tensor.New(n, outC, dim, dim, dim), tensor.New(n, inC, dim, dim, dim)

	step := func() {
		ZeroGrads(c.Params())
		c.ForwardInto(x, out)
		c.BackwardInto(gradOut, gradIn)
	}
	step()
	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state conv step performed %d scratch allocations, want 0", got)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the step took nothing from the workspace")
	}
	if c.ws.Mark() != (tensor.Mark{}) {
		t.Fatal("the step returned with workspace floats still taken")
	}
}
