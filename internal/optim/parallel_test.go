package optim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// refStep is the update of one parameter's elements written as a plain
// loop, the arithmetic each optimizer must reproduce bit for bit: m and v
// are its state (v unused by SGD), t Adam's step count.
func refStep(name string, val, grad, m, v []float32, t int) {
	switch name {
	case "adam":
		c1, c2 := 1-math.Pow(0.9, float64(t)), 1-math.Pow(0.999, float64(t))
		b1, b2 := float32(0.9), float32(0.999)
		for i, g := range grad {
			m[i] = float32(b1*m[i]) + float32((1-b1)*g)
			v[i] = float32(b2*v[i]) + float32((1-b2)*g*g)
			val[i] -= float32(1e-3 * (float64(m[i]) / c1) / (math.Sqrt(float64(v[i])/c2) + 1e-8))
		}
	case "sgd":
		for i, g := range grad {
			val[i] -= float32(float32(0.05) * g)
		}
	case "sgd-momentum":
		for i, g := range grad {
			m[i] = float32(float32(0.9)*m[i]) + g
			val[i] -= float32(float32(0.05) * m[i])
		}
	}
}

// TestStepWorkerCountInvariant: Adam, SGD and SGD with momentum update
// every element on its own, so the parameters and the exported state after
// a few steps are bit for bit the same at any worker budget, and the same
// as a plain loop over each parameter. The parameter sizes put chunk edges
// inside parameters, on their boundaries and around an empty one.
func TestStepWorkerCountInvariant(t *testing.T) {
	sizes := []int{0, 1, 4095, 4096, 4097, 20736}
	makers := map[string]func() Stater{
		"adam":         func() Stater { return NewAdam(1e-3) },
		"sgd":          func() Stater { return NewSGD(0.05, 0) },
		"sgd-momentum": func() Stater { return NewSGD(0.05, 0.9) },
	}
	for name, mk := range makers {
		var want []*nn.Param
		var wantState map[string][]float64
		for _, workers := range []int{0, 1, 2, 3, 7} { // 0: the plain loop
			params := make([]*nn.Param, len(sizes))
			rng := rand.New(rand.NewSource(5))
			for i, n := range sizes {
				name := fmt.Sprintf("p%d", i)
				if n == 0 { // no tensor has size 0; the zero Tensor does
					params[i] = &nn.Param{Name: name, Value: &tensor.Tensor{}, Grad: &tensor.Tensor{}}
					continue
				}
				params[i] = nn.NewParam(name, tensor.Randn(rng, 0, 1, n))
			}
			opt := mk()
			opt.SetWorkers(workers)
			ms, vs := make([][]float32, len(sizes)), make([][]float32, len(sizes))
			for i, n := range sizes {
				ms[i], vs[i] = make([]float32, n), make([]float32, n)
			}
			for step := 0; step < 3; step++ {
				for _, p := range params {
					for i := range p.Grad.Data() {
						p.Grad.Data()[i] = float32(rng.NormFloat64())
					}
				}
				if workers > 0 {
					opt.Step(params)
					continue
				}
				for i, p := range params {
					refStep(name, p.Value.Data(), p.Grad.Data(), ms[i], vs[i], step+1)
				}
			}
			if workers == 0 {
				want = params
				continue
			}
			state, err := opt.ExportState(params)
			if err != nil {
				t.Fatal(err)
			}
			if wantState == nil {
				wantState = state
			}
			for i, p := range params {
				for j, v := range p.Value.Data() {
					if math.Float32bits(v) != math.Float32bits(want[i].Value.Data()[j]) {
						t.Fatalf("%s at %d workers: parameter %d element %d is %v, want %v", name, workers, i, j, v, want[i].Value.Data()[j])
					}
				}
			}
			for k, vals := range state {
				for j, v := range vals {
					if math.Float64bits(v) != math.Float64bits(wantState[k][j]) {
						t.Fatalf("%s at %d workers: state %q element %d is %v, want %v", name, workers, k, j, v, wantState[k][j])
					}
				}
			}
		}
	}
}
