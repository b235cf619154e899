package patch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/msd"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

func sample(t *testing.T, dim int) *volume.Sample {
	t.Helper()
	v := msd.GenerateCase(msd.Config{Cases: 1, D: dim, H: dim, W: dim, Seed: 3}, 0)
	s, err := volume.Preprocess(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExtractCopiesWindow(t *testing.T) {
	s := sample(t, 8)
	p, err := Extract(s, 2, 1, 3, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 4, 4, 4} // 4 channels, 4^3 window
	for i, d := range want {
		if p.Input.Shape()[i] != d {
			t.Fatalf("patch shape %v", p.Input.Shape())
		}
	}
	// Spot-check voxel correspondence.
	if p.Input.At(1, 0, 0, 0) != s.Input.At(1, 2, 1, 3) {
		t.Fatal("window offset wrong")
	}
	if p.Mask.At(0, 3, 3, 3) != s.Mask.At(0, 5, 4, 6) {
		t.Fatal("mask window offset wrong")
	}
}

// TestExtractFullVolumeIsView pins the zero-copy fast paths: a cut covering
// the whole volume (and a full-plane z-slab of the single-channel mask)
// shares backing with the source sample instead of copying.
func TestExtractFullVolumeIsView(t *testing.T) {
	s := sample(t, 8)
	p, err := Extract(s, 0, 0, 0, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Input.Set(123, 0, 0, 0, 0)
	if p.Input.At(0, 0, 0, 0) != 123 {
		t.Fatal("full-volume extract copied; want a view")
	}
	// Mask is [1, D, H, W]: a z-slab spanning full H and W is contiguous.
	zs, err := Extract(s, 2, 0, 0, 4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Mask.Set(7, 0, 2, 0, 0)
	if zs.Mask.At(0, 0, 0, 0) != 7 {
		t.Fatal("single-channel z-slab extract copied; want a view")
	}
	// The multi-channel input of the same z-slab is strided: still a copy.
	s.Input.Set(-5, 0, 2, 0, 0)
	if zs.Input.At(0, 0, 0, 0) == -5 {
		t.Fatal("strided multi-channel extract aliased; want a copy")
	}
}

func TestExtractOutOfBounds(t *testing.T) {
	s := sample(t, 8)
	if _, err := Extract(s, 6, 0, 0, 4, 4, 4); err == nil {
		t.Fatal("overflow must error")
	}
	if _, err := Extract(s, -1, 0, 0, 4, 4, 4); err == nil {
		t.Fatal("negative origin must error")
	}
}

func TestRandomPatchesCountAndShape(t *testing.T) {
	s := sample(t, 8)
	rng := rand.New(rand.NewSource(1))
	ps, err := RandomPatches(s, 10, 4, 4, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 10 {
		t.Fatalf("got %d patches", len(ps))
	}
	for _, p := range ps {
		if p.Input.Dim(1) != 4 || p.Mask.Dim(1) != 4 {
			t.Fatalf("patch dims %v", p.Input.Shape())
		}
	}
}

func TestRandomPatchesPositiveBias(t *testing.T) {
	s := sample(t, 12)
	rng := rand.New(rand.NewSource(2))
	biased, err := RandomPatches(s, 40, 4, 4, 4, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	unbiased, err := RandomPatches(s, 40, 4, 4, 4, 0.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	pos := func(ps []*volume.Sample) int {
		n := 0
		for _, p := range ps {
			if p.Mask.Max() > 0 {
				n++
			}
		}
		return n
	}
	if pos(biased) <= pos(unbiased) {
		t.Fatalf("bias ineffective: %d vs %d positive patches", pos(biased), pos(unbiased))
	}
}

func TestRandomPatchesTooLarge(t *testing.T) {
	s := sample(t, 8)
	if _, err := RandomPatches(s, 1, 16, 4, 4, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("oversized patch must error")
	}
}

func TestPositionsCoverAxis(t *testing.T) {
	cases := []struct{ dim, patch, stride int }{
		{16, 4, 4}, {16, 4, 2}, {10, 4, 3}, {4, 4, 4}, {3, 8, 4},
	}
	for _, c := range cases {
		ps := positions(c.dim, c.patch, c.stride)
		covered := make([]bool, c.dim)
		for _, p := range ps {
			hi := p + c.patch
			if hi > c.dim {
				hi = c.dim
			}
			for i := p; i < hi; i++ {
				if i >= 0 {
					covered[i] = true
				}
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("dim=%d patch=%d stride=%d: voxel %d uncovered (positions %v)",
					c.dim, c.patch, c.stride, i, ps)
			}
		}
	}
}

func TestSlidingWindowValidate(t *testing.T) {
	bad := []SlidingWindow{
		{Patch: [3]int{0, 4, 4}, Stride: [3]int{1, 1, 1}},
		{Patch: [3]int{4, 4, 4}, Stride: [3]int{0, 4, 4}},
		{Patch: [3]int{4, 4, 4}, Stride: [3]int{5, 4, 4}},
	}
	for i, sw := range bad {
		if sw.Validate() == nil {
			t.Errorf("window %d should be invalid", i)
		}
	}
}

// identityPredictor returns a copy of its input (C in = C out), so
// overlap-averaged reconstruction must equal the original volume exactly.
// It copies because the caller owns, and recycles, what Infer returns.
type identityPredictor struct{}

func (identityPredictor) Infer(x *tensor.Tensor) *tensor.Tensor { return x.Clone() }

func TestSlidingWindowIdentityReconstruction(t *testing.T) {
	s := sample(t, 8)
	sw := SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}}
	out, err := sw.Infer(identityPredictor{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(out, s.Input) > 1e-5 {
		t.Fatalf("identity reconstruction error %v", tensor.MaxAbsDiff(out, s.Input))
	}
}

func TestSlidingWindowWithUNet(t *testing.T) {
	s := sample(t, 8)
	u := unet.MustNew(unet.Config{
		InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 5,
	})
	u.SetTraining(false)
	sw := SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{4, 4, 4}}
	out, err := sw.Infer(u, s)
	if err != nil {
		t.Fatal(err)
	}
	shape := out.Shape()
	if shape[0] != 1 || shape[1] != 8 || shape[2] != 8 || shape[3] != 8 {
		t.Fatalf("output shape %v", shape)
	}
	for _, v := range out.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
	}
}

func TestSlidingWindowPatchLargerThanVolume(t *testing.T) {
	s := sample(t, 8)
	sw := SlidingWindow{Patch: [3]int{16, 16, 16}, Stride: [3]int{16, 16, 16}}
	out, err := sw.Infer(identityPredictor{}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Windows clamp to the volume; reconstruction is still exact.
	if tensor.MaxAbsDiff(out, s.Input) > 1e-5 {
		t.Fatal("clamped window reconstruction wrong")
	}
}

// TestPatchLosesContext quantifies the paper's motivation: a border voxel
// inside a small patch sees less spatial context than in the full volume.
// The sliding-window machinery must still produce consistent averages where
// overlaps disagree; here we verify averaging arithmetic with a predictor
// that returns the window origin as a constant.
func TestSlidingWindowAveragesOverlaps(t *testing.T) {
	s := sample(t, 8)
	calls := 0
	pred := predictorFunc(func(x *tensor.Tensor) *tensor.Tensor {
		calls++
		out := tensor.New(x.Shape()...)
		out.Fill(float32(calls)) // distinct constant per window
		sh := x.Shape()
		return out.Reshape(sh...)
	})
	sw := SlidingWindow{Patch: [3]int{8, 8, 4}, Stride: [3]int{8, 8, 2}}
	out, err := sw.Infer(pred, s)
	if err != nil {
		t.Fatal(err)
	}
	// Three windows along W at x∈{0,2,4}: voxel x=3 is covered by windows 1
	// and 2 → average 1.5.
	got := out.At(0, 0, 0, 3)
	if math.Abs(float64(got)-1.5) > 1e-6 {
		t.Fatalf("overlap average %v, want 1.5", got)
	}
	// Voxel x=0 is covered only by window 1.
	if out.At(0, 0, 0, 0) != 1 {
		t.Fatalf("non-overlap voxel %v, want 1", out.At(0, 0, 0, 0))
	}
}

type predictorFunc func(*tensor.Tensor) *tensor.Tensor

func (f predictorFunc) Infer(x *tensor.Tensor) *tensor.Tensor { return f(x) }

// TestInferReplicasInvariant asserts the parallelized window loop is
// deterministic: N replicas with identical weights produce bit-for-bit the
// single-model result, for any replica count and blend mode.
func TestInferReplicasInvariant(t *testing.T) {
	s := sample(t, 8)
	newModel := func() *unet.UNet {
		u := unet.MustNew(unet.Config{
			InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2,
			Kernel: 3, UpKernel: 2, Seed: 5,
		})
		u.SetTraining(false)
		return u
	}
	for _, blend := range []BlendMode{BlendUniform, BlendGaussian} {
		sw := SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}, Blend: blend}
		want, err := sw.Infer(newModel(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, replicas := range []int{2, 3} {
			models := make([]Predictor, replicas)
			for i := range models {
				models[i] = newModel()
			}
			got, err := sw.InferReplicas(models, s)
			if err != nil {
				t.Fatal(err)
			}
			wd, gd := want.Data(), got.Data()
			for i := range wd {
				if wd[i] != gd[i] {
					t.Fatalf("blend=%d replicas=%d: element %d differs (%v vs %v)",
						blend, replicas, i, gd[i], wd[i])
				}
			}
		}
	}
}

// TestBlendWorkerCountInvariant asserts the blend stage itself is bitwise
// independent of its worker budget (the parallel partition is over output
// channels; windows always accumulate in scan order).
func TestBlendWorkerCountInvariant(t *testing.T) {
	s := sample(t, 8)
	u := unet.MustNew(unet.Config{
		InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 7,
	})
	u.SetTraining(false)
	base := SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}}
	want, err := base.Infer(u, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		sw := base
		sw.Workers = workers
		got, err := sw.Infer(u, s)
		if err != nil {
			t.Fatal(err)
		}
		wd, gd := want.Data(), got.Data()
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
}

// TestGaussianBlendIdentity: with an identity predictor the Gaussian
// weights cancel in the weighted average, so reconstruction is still exact
// up to float rounding.
func TestGaussianBlendIdentity(t *testing.T) {
	s := sample(t, 8)
	sw := SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}, Blend: BlendGaussian}
	out, err := sw.Infer(identityPredictor{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out, s.Input); d > 1e-4 {
		t.Fatalf("gaussian identity reconstruction error %v", d)
	}
}

// TestGaussianBlendFavoursWindowCentre: where two windows overlap, the
// voxel near one window's centre takes most of its value from that window.
func TestGaussianBlendFavoursWindowCentre(t *testing.T) {
	s := sample(t, 8)
	call := 0
	pred := predictorFunc(func(x *tensor.Tensor) *tensor.Tensor {
		call++
		out := tensor.New(x.Shape()...)
		out.Fill(float32(call)) // window i predicts the constant i
		return out
	})
	// Two windows along W: x∈[0,4) and x∈[4,8) — no overlap, then
	// stride 2 → windows at x∈{0,2,4}: voxel x=2 is the centre region of
	// window 2 but the border of windows 1 and 3.
	sw := SlidingWindow{Patch: [3]int{8, 8, 4}, Stride: [3]int{8, 8, 2}, Blend: BlendGaussian}
	out, err := sw.Infer(pred, s)
	if err != nil {
		t.Fatal(err)
	}
	// Voxel x=3 is covered by windows 1 (border) and 2 (near centre); the
	// Gaussian-weighted average must land closer to 2 than the uniform 1.5.
	got := float64(out.At(0, 0, 0, 3))
	if got <= 1.5 {
		t.Fatalf("gaussian blend at overlap = %v, want > uniform average 1.5", got)
	}
}
