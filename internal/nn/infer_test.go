package nn

import (
	"math"
	"math/rand"
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

// runningNorm is the serial reference of BatchNorm.Infer: every element
// normalized with its channel's running statistics, then scaled and shifted.
func runningNorm(bn *BatchNorm, x *tensor.Tensor) *tensor.Tensor {
	_, c, d, h, w := check5D("runningNorm", x)
	out := tensor.New(x.Shape()...)
	spatial := d * h * w
	for i, v := range x.Data() {
		ci := i / spatial % c
		mean, rstd := bn.RunningMean[ci], 1/math.Sqrt(bn.RunningVar[ci]+bn.Eps)
		out.Data()[i] = bnAffine(bn.Gamma.Value.Data()[ci], bnNormalize(v, mean, rstd), bn.Beta.Value.Data()[ci])
	}
	return out
}

// TestSequentialInferMatchesForward asserts the inference fast path is bit
// for bit what the layers compute one by one: Forward for every layer but
// BatchNorm, whose Infer normalizes with the running statistics — the
// property the serving layer's batched-vs-reference equality rests on.
func TestSequentialInferMatchesForward(t *testing.T) {
	t.Run("gemm", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

		net := inferNet()
		// Perturb the running stats so they are actually exercised.
		for _, l := range net.Layers {
			if bn, ok := l.(*BatchNorm); ok {
				for i := range bn.RunningMean {
					bn.RunningMean[i] = 0.1 * float64(i+1)
					bn.RunningVar[i] = 1 + 0.05*float64(i)
				}
			}
		}
		got := net.Infer(x)

		want := x
		for _, l := range net.Layers {
			if bn, ok := l.(*BatchNorm); ok {
				want = runningNorm(bn, want)
			} else {
				want = l.Forward(want)
			}
		}

		wd, gd := want.Data(), got.Data()
		if len(wd) != len(gd) {
			t.Fatalf("size mismatch: %d vs %d", len(wd), len(gd))
		}
		for i := range wd {
			if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
				t.Fatalf("element %d: Infer %v != layer by layer %v", i, gd[i], wd[i])
			}
		}
	})
}

// TestSequentialInferScratchSteadyState asserts the inference path's
// workspace contract: after warm-up, an inference step takes every scratch
// buffer from its layers' workspaces without allocating, and gives them
// back.
func TestSequentialInferScratchSteadyState(t *testing.T) {
	s := inferNet()
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)

	s.Infer(x)
	before := tensor.ScratchStatsSnapshot()
	s.Infer(x)
	after := tensor.ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 0 {
		t.Fatalf("steady-state inference step performed %d scratch allocations, want 0 (takes %d)",
			got, after.Gets-before.Gets)
	}
	if after.Gets == before.Gets {
		t.Fatal("test is vacuous: the inference step took nothing from a workspace")
	}
	for _, l := range s.Layers {
		if c, ok := l.(*Conv3D); ok && c.ws.Mark() != (tensor.Mark{}) {
			t.Fatal("Infer returned with workspace floats still taken")
		}
	}
}

// TestInferRetainsNoBackwardState asserts Infer leaves no backward caches:
// Backward without a prior Forward must still panic after an Infer call.
func TestInferRetainsNoBackwardState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv3D("c", 2, 2, 3, rng)
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	c.Infer(x)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after Infer-only must panic (no cached input)")
		}
	}()
	c.Backward(tensor.New(1, 2, 4, 4, 4))
}
