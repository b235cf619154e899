package nn

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// inferNet builds a small network exercising every layer type with an
// inference fast path: conv, batch norm, ReLU, max pool, transposed conv
// and the sigmoid head.
func inferNet() *Sequential {
	rng := rand.New(rand.NewSource(11))
	return NewSequential(
		NewConv3D("a", 2, 4, 3, rng),
		NewBatchNorm("a", 4),
		NewReLU(),
		NewMaxPool3D(2),
		NewConvTranspose3D("up", 4, 4, 2, rng),
		NewConv3D("b", 4, 1, 1, rng),
		NewSigmoid(),
	)
}

// TestSequentialInferMatchesForward asserts the inference fast path is
// bit-for-bit identical to an evaluation-mode Forward — the property the
// serving layer's batched-vs-reference equality rests on.
func TestSequentialInferMatchesForward(t *testing.T) {
	t.Run("gemm", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

		fwd := inferNet()
		fwd.SetTraining(false)
		// Perturb the running stats so eval mode is actually exercised.
		for _, l := range fwd.Layers {
			if bn, ok := l.(*BatchNorm); ok {
				for i := range bn.RunningMean {
					bn.RunningMean[i] = 0.1 * float64(i+1)
					bn.RunningVar[i] = 1 + 0.05*float64(i)
				}
			}
		}
		want := fwd.Forward(x)

		inf := inferNet()
		for _, l := range inf.Layers {
			if bn, ok := l.(*BatchNorm); ok {
				for i := range bn.RunningMean {
					bn.RunningMean[i] = 0.1 * float64(i+1)
					bn.RunningVar[i] = 1 + 0.05*float64(i)
				}
			}
		}
		got := inf.Infer(x)

		wd, gd := want.Data(), got.Data()
		if len(wd) != len(gd) {
			t.Fatalf("size mismatch: %d vs %d", len(wd), len(gd))
		}
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("element %d: Infer %v != Forward %v", i, gd[i], wd[i])
			}
		}
		tensor.Recycle(got)
	})
}

// TestSequentialInferScratchSteadyState asserts the fast path's pool
// contract: after warm-up, an inference step gets every activation and
// scratch buffer from the pool — zero fresh scratch allocations.
func TestSequentialInferScratchSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	s := inferNet()
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)

	step := func() { tensor.Recycle(s.Infer(x)) }
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

// TestInferRetainsNoBackwardState asserts Infer leaves no backward caches:
// Backward without a prior Forward must still panic after an Infer call.
func TestInferRetainsNoBackwardState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv3D("c", 2, 2, 3, rng)
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	tensor.Recycle(c.Infer(x))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after Infer-only must panic (no cached input)")
		}
	}()
	c.Backward(tensor.New(1, 2, 4, 4, 4))
}
