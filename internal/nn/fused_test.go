package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Tests for the fused-packing GEMM training path: the im2col-free forward
// (patches streamed straight into the GEMM packing panels) must be
// bit-for-bit identical to the materialized-patch-matrix training forward,
// and the per-layer patch cache must survive shape changes and engine
// switches without corrupting gradients.

// TestFusedPackingMatchesMaterialized compares the inference fast path
// (fused packing, no patch matrix) against the training forward
// (materialized patch cache) element-for-element at several worker
// budgets, and both against the direct serial reference within the engine
// tolerance.
func TestFusedPackingMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name         string
		inC, outC, k int
		n, d, h, w   int
	}{
		{"body3x3x3", 3, 5, 3, 2, 6, 5, 7},
		{"head1x1x1", 4, 1, 1, 2, 5, 3, 7},
		{"kernel5", 2, 3, 5, 1, 7, 5, 9},
		{"kernel5narrow", 1, 2, 5, 1, 4, 4, 1},
		{"bigvolume", 2, 4, 3, 1, 8, 9, 10}, // cols spans multiple ncBlocks
		// kdim = 4·5³ = 500 > kcBlock: the second K slice starts mid-tap
		// with dx = +2, driving the packed run's valid x-range negative at
		// the row tail (regression test for an out-of-range panel write).
		{"kernel5deepK", 4, 2, 5, 1, 5, 5, 5},
		// Row widths around the 16-column packing panel: a panel spans
		// 8, 4, 2 rows (w = 2, 4, 8), exactly one (16), or straddles row
		// ends at varying offsets (20) — and crosses y-row and z-plane
		// boundaries, where a tap's neighbours fall into the padding.
		{"w2", 3, 4, 3, 1, 2, 2, 2},
		{"w4", 3, 4, 3, 2, 4, 4, 4},
		{"w8", 2, 4, 3, 1, 8, 8, 8},
		{"w16", 2, 4, 3, 1, 3, 5, 16},
		{"w20", 2, 4, 3, 1, 3, 4, 20},
		{"w4kernel5", 2, 3, 5, 1, 4, 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)

			ref := NewConv3D("ref", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(6)))
			refOut := ref.forwardSerial(x)

			for _, workers := range []int{1, 2, 7} {
				c := NewConv3D("c", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(6)))
				c.SetConvEngine(EngineGEMM)
				c.SetWorkers(workers)
				trained := c.Forward(x) // materialized patch cache
				fused := tensor.New(trained.Shape()...)
				c.forwardGEMMInto(x, fused) // fused packing
				assertBitEqual(t, "fused vs materialized", workers, trained.Data(), fused.Data())
				assertWithinULP(t, "fused vs serial", workers, refOut.Data(), fused.Data(), forwardMaxULP)
			}
		})
	}
}

// TestEvalForwardFillsNoPatchCache asserts evaluation-mode forwards take
// the fused path: no patch cache is claimed or grown (validation volumes
// are typically far larger than training batches), and the output stays
// bit-for-bit equal to the training forward's.
func TestEvalForwardFillsNoPatchCache(t *testing.T) {
	const inC, outC, k = 3, 4, 3
	rng := rand.New(rand.NewSource(55))
	small := randTensor(rng, 1, inC, 4, 4, 4)
	big := randTensor(rng, 2, inC, 8, 8, 8)

	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(13)))
	c.SetConvEngine(EngineGEMM)
	c.Forward(small)
	cacheLen := len(c.patchCache)
	if cacheLen == 0 {
		t.Fatal("training forward must fill the patch cache")
	}

	ref := NewConv3D("ref", inC, outC, k, rand.New(rand.NewSource(13)))
	ref.SetConvEngine(EngineGEMM)
	want := ref.Forward(big)

	c.SetTraining(false)
	if c.patchCache != nil || c.patchCacheOf != nil {
		t.Fatal("SetTraining(false) must release the patch cache and its input pin")
	}
	got := c.Forward(big)
	if c.patchCache != nil {
		t.Fatalf("eval forward claimed a %d-float patch cache; want none", len(c.patchCache))
	}
	assertBitEqual(t, "eval vs training forward", 0, want.Data(), got.Data())

	// Backward after an eval forward is unusual but legal: the stale cache
	// is rebuilt from the retained input.
	gradOut := randTensor(rng, 2, outC, 8, 8, 8)
	wantIn := ref.Backward(gradOut)
	gotIn := c.Backward(gradOut)
	assertBitEqual(t, "backward after eval forward", 0, wantIn.Data(), gotIn.Data())
	assertBitEqual(t, "kernel grad after eval forward", 0, ref.W.Grad.Data(), c.W.Grad.Data())
}

// TestPatchCacheShapeChange runs training steps through one layer at
// alternating input shapes (grow, shrink, grow) and checks every step's
// gradients against a fresh layer on the same data — the cache must be
// resized/refilled per step, never read stale.
func TestPatchCacheShapeChange(t *testing.T) {
	shapes := []struct{ n, d, h, w int }{
		{1, 4, 4, 4},
		{2, 6, 5, 7}, // bigger batch and volume: cache grows
		{1, 3, 3, 3}, // shrink: cache reused at shorter length
		{2, 6, 5, 7}, // grow again
	}
	const inC, outC, k = 3, 4, 3
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(12)))
	c.SetConvEngine(EngineGEMM)

	for step, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(100 + step)))
		x := randTensor(rng, sh.n, inC, sh.d, sh.h, sh.w)
		gradOut := randTensor(rng, sh.n, outC, sh.d, sh.h, sh.w)

		fresh := NewConv3D("fresh", inC, outC, k, rand.New(rand.NewSource(12)))
		fresh.SetConvEngine(EngineGEMM)
		fresh.W.Value.CopyFrom(c.W.Value)
		fresh.B.Value.CopyFrom(c.B.Value)

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

// TestPatchCacheStaleAfterEngineSwitch forwards under the direct engine
// (which fills no cache), switches to GEMM, and calls Backward: the stale
// cache must be rebuilt from the retained input, yielding gradients within
// the engine tolerance of the serial reference.
func TestPatchCacheStaleAfterEngineSwitch(t *testing.T) {
	const inC, outC, k, n, d, h, w = 3, 4, 3, 2, 5, 4, 6
	rng := rand.New(rand.NewSource(77))
	x := randTensor(rng, n, inC, d, h, w)
	gradOut := randTensor(rng, n, outC, d, h, w)

	ref := NewConv3D("ref", inC, outC, k, rand.New(rand.NewSource(5)))
	ref.forwardSerial(x)
	refIn := ref.backwardSerial(gradOut)

	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(5)))
	c.SetConvEngine(EngineDirect)
	c.Forward(x)
	c.SetConvEngine(EngineGEMM)
	in := c.Backward(gradOut)

	assertWithinULP(t, "input grad after engine switch", 0, refIn.Data(), in.Data(), backwardMaxULP)
	assertWithinULP(t, "kernel grad after engine switch", 0, ref.W.Grad.Data(), c.W.Grad.Data(), backwardMaxULP)
}

// TestTrainingStepScratchSteadyStateConv is the layer-local allocation
// contract of the fused path: with the patch cache warm, a forward/backward
// step draws every buffer (partials, gradP, packing panels) from the
// scratch pool — zero fresh allocations.
func TestTrainingStepScratchSteadyStateConv(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	const inC, outC, k, n, dim = 4, 6, 3, 2, 8
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, n, inC, dim, dim, dim)
	gradOut := randTensor(rng, n, outC, dim, dim, dim)
	c := NewConv3D("c", inC, outC, k, rand.New(rand.NewSource(4)))
	c.SetConvEngine(EngineGEMM)

	step := func() {
		ZeroGrads(c.Params())
		c.Forward(x)
		c.Backward(gradOut)
	}
	step()
	step()
	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state conv step performed %d scratch allocations, want 0", got)
	}
}
