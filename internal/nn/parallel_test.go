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
// deterministic baseline the others must reproduce).
func TestLayersWorkerCountInvariant(t *testing.T) {
	const n, c, d, h, w = 2, 4, 4, 6, 6
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, n, c, d, h, w)
	gradOut := randTensor(rng, n, c, d, h, w)

	layers := map[string]func() Layer{
		"BatchNorm": func() Layer { return NewBatchNorm("bn", c) },
		"MaxPool3D": func() Layer { return NewMaxPool3D(2) },
		"ReLU":      func() Layer { return NewReLU() },
		"Sigmoid":   func() Layer { return NewSigmoid() },
	}
	for name, mk := range layers {
		t.Run(name, func(t *testing.T) {
			base := mk()
			base.(WorkerSetter).SetWorkers(1)
			refOut := base.Forward(x)
			refGrad := gradOut
			if name == "MaxPool3D" {
				refGrad = randTensor(rand.New(rand.NewSource(9)), n, c, d/2, h/2, w/2)
			}
			refIn := base.Backward(refGrad)

			for _, workers := range equalityWorkerCounts[1:] {
				l := mk()
				l.(WorkerSetter).SetWorkers(workers)
				out := l.Forward(x)
				assertBitEqual(t, "forward output", workers, refOut.Data(), out.Data())
				in := l.Backward(refGrad)
				assertBitEqual(t, "input gradient", workers, refIn.Data(), in.Data())
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
