package unet

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestTrainingStepScratchSteadyState asserts the workspace contract of the
// GEMM convolutions: after one warm-up step, a full U-Net forward/backward
// training step takes every halo copy, gradient column buffer and GEMM
// packing panel from the network's workspace backing — zero fresh scratch
// allocations in steady state, whenever the collector runs.
func TestTrainingStepScratchSteadyState(t *testing.T) {
	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 1, 1, 8, 8, 8)

	step := func() {
		u.ZeroGrads()
		u.Forward(x)
		u.Backward(g)
	}
	step()

	before := tensor.ScratchStatsSnapshot()
	step()
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state training step performed %d scratch allocations, want 0 (takes %d)",
			got, after.Gets-before.Gets)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the training step took nothing from the workspace")
	}
}
