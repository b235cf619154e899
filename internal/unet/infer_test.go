package unet

import (
	"math/rand"
	"testing"

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
