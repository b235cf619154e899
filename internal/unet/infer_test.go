package unet

import (
	"math/rand"
	"runtime/debug"
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
// performs zero fresh scratch allocations — every activation, patch matrix
// and packing panel comes from the pool.
func TestInferScratchSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)

	step := func() { tensor.Recycle(u.Infer(x)) }
	step()
	step()

	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state inference step performed %d scratch allocations, want 0 "+
			"(gets %d, puts %d)", got, after.Gets-before.Gets, after.Puts-before.Puts)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the inference step never used the scratch pool")
	}
}

// TestInferBatchInvariant asserts a sample's prediction does not depend on
// its batch neighbours: per-sample slabs of a batched Infer equal the
// single-sample results bit for bit. Cross-request micro-batching in the
// serving layer relies on this.
func TestInferBatchInvariant(t *testing.T) {
	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(4))
	a := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	b := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)

	batch := tensor.New(2, 2, 4, 4, 4)
	copy(batch.Data()[:a.Size()], a.Data())
	copy(batch.Data()[a.Size():], b.Data())

	batched := u.Infer(batch)
	wantA := u.Infer(a)
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
