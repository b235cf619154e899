package nn

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// randTensor fills a tensor with a deterministic mix of signed values and
// exact zeros (the serial kernels skip zeros, so the skip paths must agree).
func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		if rng.Intn(8) == 0 {
			continue // keep an exact zero
		}
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

var equalityWorkerCounts = []int{1, 2, 3, 7, 16}

// TestLayersWorkerCountInvariant checks that for every parallel layer the
// results are bit-for-bit independent of the worker budget (budget 1 is the
// deterministic baseline the others must reproduce). The per-channel
// reductions run four channels to a parallel chunk, so BatchNorm and the
// ConvBNReLU block also run at 6 and 9 channels, where the last group of
// four is cut short; at 16 channels the block's weight flip and packing and
// the sigmoid run in several chunks.
func TestLayersWorkerCountInvariant(t *testing.T) {
	const n, d, h, w = 2, 4, 6, 6
	layers := []struct {
		name    string
		inC, c  int
		mk      func() Layer
		shrinks bool // halves every extent (the gradient is the pooled shape)
	}{
		{"BatchNorm", 4, 4, func() Layer { return NewBatchNorm("bn", 4) }, false},
		{"MaxPool3D", 4, 4, func() Layer { return NewMaxPool3D(2) }, true},
		{"ReLU", 4, 4, func() Layer { return NewReLU() }, false},
		{"Sigmoid", 4, 4, func() Layer { return NewSigmoid() }, false},
		{"BatchNorm_c6", 6, 6, func() Layer { return NewBatchNorm("bn", 6) }, false},
		{"BatchNorm_c9", 9, 9, func() Layer { return NewBatchNorm("bn", 9) }, false},
		{"ConvBNReLU_c6", 3, 6, func() Layer { return NewConvBNReLU("b", 3, 6, 3, rand.New(rand.NewSource(5))) }, false},
		{"ConvBNReLU_c9", 3, 9, func() Layer { return NewConvBNReLU("b", 3, 9, 3, rand.New(rand.NewSource(5))) }, false},
		// Enough weights that W′ and the shared packed A split into
		// several chunks, and enough voxels that the sigmoid does.
		{"ConvBNReLU_c16", 16, 16, func() Layer { return NewConvBNReLU("b", 16, 16, 3, rand.New(rand.NewSource(5))) }, false},
		{"Sigmoid_c16", 16, 16, func() Layer { return NewSigmoid() }, false},
	}
	for _, tc := range layers {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			x := randTensor(rng, n, tc.inC, d, h, w)
			gradOut := randTensor(rng, n, tc.c, d, h, w)
			if tc.shrinks {
				gradOut = randTensor(rand.New(rand.NewSource(9)), n, tc.c, d/2, h/2, w/2)
			}
			// The block's Backward overwrites its gradient and its results
			// are its own buffers: every call gets a copy, every result is
			// copied out.
			step := func(workers int) (out, in []float32, l Layer) {
				l = tc.mk()
				l.(WorkerSetter).SetWorkers(workers)
				out = append([]float32(nil), l.Forward(x).Data()...)
				in = append([]float32(nil), l.Backward(gradOut.Clone()).Data()...)
				return out, in, l
			}
			refOut, refIn, base := step(1)
			for _, workers := range equalityWorkerCounts[1:] {
				out, in, l := step(workers)
				assertBitEqual(t, "forward output", workers, refOut, out)
				assertBitEqual(t, "input gradient", workers, refIn, in)
				for pi, p := range l.Params() {
					assertBitEqual(t, p.Name+" gradient", workers, base.Params()[pi].Grad.Data(), p.Grad.Data())
				}
			}
		})
	}
}

// TestUNetWorkerCountInvariant trains one forward/backward through the full
// network under different budgets and demands bitwise-identical results —
// the property that keeps mirrored replicas synchronized when the budget
// changes between runs. The GEMM convolutions hold it by single-owner column
// blocks with a budget-independent K order.
func TestUNetWorkerCountInvariant(t *testing.T) {
	t.Parallel()
	build := func(workers int) ([]float32, [][]float32) {
		// Local import cycle avoidance: construct via the layers directly.
		rng := rand.New(rand.NewSource(2))
		conv1 := NewConv3D("c1", 2, 4, 3, rng)
		bn := NewBatchNorm("bn", 4)
		relu := NewReLU()
		pool := NewMaxPool3D(2)
		up := NewConvTranspose3D("up", 4, 4, 2, rng)
		head := NewConv3D("head", 4, 1, 1, rng)
		act := NewSigmoid()
		seq := NewSequential(conv1, bn, relu, pool, up, head, act)
		seq.SetWorkers(workers)

		x := randTensor(rand.New(rand.NewSource(4)), 2, 2, 8, 8, 8)
		out := seq.Forward(x)
		seq.Backward(randTensor(rand.New(rand.NewSource(6)), 2, 1, 8, 8, 8))
		var grads [][]float32
		for _, p := range seq.Params() {
			grads = append(grads, append([]float32(nil), p.Grad.Data()...))
		}
		return append([]float32(nil), out.Data()...), grads
	}
	t.Run("gemm", func(t *testing.T) {
		refOut, refGrads := build(1)
		for _, workers := range []int{2, 5} {
			out, grads := build(workers)
			assertBitEqual(t, "network output", workers, refOut, out)
			for i := range grads {
				assertBitEqual(t, "parameter gradient", workers, refGrads[i], grads[i])
			}
		}
	})
}

func assertBitEqual(t *testing.T, what string, workers int, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s (workers=%d): length %d != %d", what, workers, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s (workers=%d): element %d = %v, want %v (bit-for-bit)", what, workers, i, got[i], want[i])
		}
	}
}

// TestConvWorkerBudgetDefault checks that a zero budget, which follows the
// global parallel default at call time, computes the bits an explicit budget
// of that size does.
func TestConvWorkerBudgetDefault(t *testing.T) {
	orig := parallel.DefaultWorkers()
	defer parallel.SetDefaultWorkers(orig)
	parallel.SetDefaultWorkers(3)

	x := randTensor(rand.New(rand.NewSource(2)), 1, 2, 4, 4, 4)
	ref := NewConv3D("ref", 2, 2, 3, rand.New(rand.NewSource(1)))
	ref.SetWorkers(3)
	refOut := ref.Forward(x)
	c := NewConv3D("c", 2, 2, 3, rand.New(rand.NewSource(1)))
	out := c.Forward(x) // budget 0 → global default (3 workers)
	assertBitEqual(t, "forward output under global default", 3, refOut.Data(), out.Data())
}
