package unet

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// TestTrainingStepScratchSteadyState asserts the scratch-pool contract of
// the GEMM convolutions: after one warm-up step, a full U-Net
// forward/backward training step gets every halo copy, gradient column
// buffer and GEMM packing panel from the pool — zero fresh scratch
// allocations in steady state.
func TestTrainingStepScratchSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	// sync.Pool is drained by the garbage collector; disable GC so the
	// steady-state window is deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	u := MustNew(Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 4,
		Steps:       3,
		Kernel:      3,
		UpKernel:    2,
		Seed:        1,
	})
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 1, 1, 8, 8, 8)

	step := func() {
		u.ZeroGrads()
		u.Forward(x)
		u.Backward(g)
	}
	step()
	step() // second warm-up: all buckets touched at their final sizes

	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state training step performed %d scratch allocations, want 0 "+
			"(gets %d, puts %d)", got, after.Gets-before.Gets, after.Puts-before.Puts)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the training step never used the scratch pool")
	}
}
