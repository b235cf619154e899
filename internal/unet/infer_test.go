package unet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func inferTestConfig() Config {
	return Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 4,
		Steps:       3,
		Kernel:      3,
		UpKernel:    2,
		Seed:        1,
	}
}

// TestInferScratchSteadyState asserts a steady-state U-Net inference step
// performs zero fresh scratch allocations — every patch-matrix halo and
// packing panel comes from the network's workspace backing.
func TestInferScratchSteadyState(t *testing.T) {
	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)

	u.Infer(x)
	before := tensor.ScratchStatsSnapshot()
	u.Infer(x)
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state inference step performed %d scratch allocations, want 0 (takes %d)",
			got, after.Gets-before.Gets)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the inference step took nothing from the workspace")
	}
}

// TestInferRecycleInfer: tensor.Recycle on Infer's result — the network's
// own buffer — leaves the buffer whole, so the next Infer on the same input
// gives the same bits into it.
func TestInferRecycleInfer(t *testing.T) {
	u := MustNew(inferTestConfig())
	x := tensor.Randn(rand.New(rand.NewSource(5)), 0, 1, 2, 2, 8, 8, 8)
	first := u.Infer(x).Clone()
	tensor.Recycle(u.Infer(x))
	sameBits(t, "Infer after Recycle", first.Data(), u.Infer(x).Data())
}

// TestInferBatchInvariant asserts a sample's prediction does not depend on
// its batch neighbours: per-sample slabs of a batched Infer equal the
// single-sample results bit for bit. Cross-request micro-batching in the
// serving layer relies on this. Each result is copied out before the next
// Infer reuses the network's buffer.
func TestInferBatchInvariant(t *testing.T) {
	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(4))
	a := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	b := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)

	batch := tensor.New(2, 2, 4, 4, 4)
	copy(batch.Data()[:a.Size()], a.Data())
	copy(batch.Data()[a.Size():], b.Data())

	batched := u.Infer(batch).Clone()
	wantA := u.Infer(a).Clone()
	wantB := u.Infer(b)

	half := batched.Size() / 2
	for i := 0; i < half; i++ {
		if batched.Data()[i] != wantA.Data()[i] {
			t.Fatalf("sample 0 element %d differs under batching", i)
		}
		if batched.Data()[half+i] != wantB.Data()[i] {
			t.Fatalf("sample 1 element %d differs under batching", i)
		}
	}
}

// TestInferHaloBordersAcrossShapes: Infer's buffers change layout with the
// input's shape, and a layout of other extents puts its borders where the
// last one's interiors were. Infers at [4,4,16³], then [1,4,8³], then
// [4,4,16³] again, then after DropCaches, then at [1,4,16³] (fewer planes
// of the same extents, as a serving replica's smaller batch lays out) and
// [4,4,16³] once more, must each give a freshly built network's bits, and
// leave every buffer laid out inside a border with that border all zero.
func TestInferHaloBordersAcrossShapes(t *testing.T) {
	cfg := Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 3, Kernel: 3, UpKernel: 2, Seed: 9}
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(10))
	big := tensor.Randn(rng, 0, 1, 4, 4, 16, 16, 16)
	small := tensor.Randn(rng, 0, 1, 1, 4, 8, 8, 8)
	one := tensor.Randn(rng, 0, 1, 1, 4, 16, 16, 16)
	for i, x := range []*tensor.Tensor{big, small, big, nil, big, one, big} {
		if x == nil {
			u.DropCaches()
			continue
		}
		what := fmt.Sprintf("Infer %d at %v", i, x.Shape())
		sameBits(t, what, MustNew(cfg).Infer(x).Data(), u.Infer(x).Data())
		bufs := map[string]*nn.HaloBuffer{"ping": &u.ping, "pong": &u.pong}
		for j, d := range u.dec {
			bufs[fmt.Sprintf("dec[%d] concatenation", j)] = &d.inferCat
		}
		checked := 0
		for name, b := range bufs {
			if a := b.Layout(); a.P > 0 {
				checkBorderZero(t, what+": "+name, a)
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: test is vacuous: no buffer is laid out inside a border", what)
		}
	}
}

// checkBorderZero asserts that every element of a's buffer outside the
// interiors of its planes is +0.
func checkBorderZero(t *testing.T, what string, a nn.Haloed) {
	t.Helper()
	s := a.Buf.Shape()
	p := a.P
	inside := func(i, n int) bool { return i >= p && i < n-p }
	i := 0
	for plane := 0; plane < s[0]*s[1]; plane++ {
		for z := 0; z < s[2]; z++ {
			for y := 0; y < s[3]; y++ {
				for x := 0; x < s[4]; x++ {
					v := a.Buf.Data()[i]
					i++
					if inside(z, s[2]) && inside(y, s[3]) && inside(x, s[4]) {
						continue
					}
					if math.Float32bits(v) != 0 {
						t.Fatalf("%s: plane %d border voxel (%d, %d, %d) = %v, want +0", what, plane, z, y, x, v)
					}
				}
			}
		}
	}
}
