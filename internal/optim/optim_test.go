package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadParam builds a parameter whose loss is Σ (v − target)²/2, so the
// gradient is simply (v − target).
func quadParam(n int, seed int64) (*nn.Param, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	p := nn.NewParam("p", tensor.Randn(rng, 0, 1, n))
	target := tensor.Randn(rng, 0, 1, n)
	return p, target
}

func setQuadGrad(p *nn.Param, target *tensor.Tensor) float64 {
	var l float64
	for i, v := range p.Value.Data() {
		d := v - target.Data()[i]
		p.Grad.Data()[i] = d
		l += 0.5 * float64(d) * float64(d)
	}
	return l
}

func testConverges(t *testing.T, opt Optimizer, steps int, tol float64) {
	t.Helper()
	p, target := quadParam(8, 11)
	params := []*nn.Param{p}
	var last float64
	for i := 0; i < steps; i++ {
		last = setQuadGrad(p, target)
		opt.Step(params)
	}
	if last > tol {
		t.Fatalf("%s did not converge: final loss %v", opt.Name(), last)
	}
}

func TestSGDConverges(t *testing.T)         { testConverges(t, NewSGD(0.2, 0), 200, 1e-6) }
func TestSGDMomentumConverges(t *testing.T) { testConverges(t, NewSGD(0.05, 0.9), 300, 1e-6) }
func TestAdamConverges(t *testing.T)        { testConverges(t, NewAdam(0.05), 500, 1e-4) }

func TestSGDExactStep(t *testing.T) {
	p := nn.NewParam("p", tensor.FromSlice([]float32{1}, 1))
	p.Grad.Data()[0] = 2
	s := NewSGD(0.5, 0)
	s.Step([]*nn.Param{p})
	if got := p.Value.Data()[0]; got != 0 {
		t.Fatalf("1 - 0.5·2 should be 0, got %v", got)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := nn.NewParam("p", tensor.New(1))
	s := NewSGD(1, 0.5)
	p.Grad.Data()[0] = 1
	s.Step([]*nn.Param{p}) // v=1, p=-1
	p.Grad.Data()[0] = 1
	s.Step([]*nn.Param{p}) // v=1.5, p=-2.5
	if got := p.Value.Data()[0]; math.Abs(float64(got)+2.5) > 1e-6 {
		t.Fatalf("momentum wrong: %v, want -2.5", got)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr regardless of
	// gradient magnitude.
	for _, g := range []float32{0.001, 1, 1000} {
		p := nn.NewParam("p", tensor.New(1))
		a := NewAdam(0.1)
		p.Grad.Data()[0] = g
		a.Step([]*nn.Param{p})
		if got := float64(p.Value.Data()[0]); math.Abs(got+0.1) > 1e-3 {
			t.Fatalf("grad %v: first step %v, want ≈ -0.1", g, got)
		}
	}
}

func TestSetLR(t *testing.T) {
	for _, opt := range []Optimizer{NewSGD(0.1, 0), NewAdam(0.1)} {
		opt.SetLR(0.42)
		if opt.LR() != 0.42 {
			t.Fatalf("%s SetLR not applied", opt.Name())
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("adam", 0.01)
	if err != nil || a.Name() != "adam" || a.LR() != 0.01 {
		t.Fatalf("ByName adam: %v %v", a, err)
	}
	s, err := ByName("sgd", 0.1)
	if err != nil || s.Name() != "sgd" {
		t.Fatalf("ByName sgd: %v %v", s, err)
	}
	if _, err := ByName("lamb", 0.1); err == nil {
		t.Fatal("unknown optimizer must error")
	}
}

func TestScaleLRForReplicas(t *testing.T) {
	// The paper: initial learning rate 1e-4 × #GPUs.
	if got := ScaleLRForReplicas(1e-4, 32); math.Abs(got-3.2e-3) > 1e-12 {
		t.Fatalf("got %v", got)
	}
	if got := ScaleLRForReplicas(1e-4, 0); got != 1e-4 {
		t.Fatalf("replicas<1 must clamp, got %v", got)
	}
}

// Property: SGD with small LR never increases the quadratic loss.
func TestPropertySGDDescent(t *testing.T) {
	f := func(seed int64) bool {
		p, target := quadParam(4, seed)
		s := NewSGD(0.1, 0)
		before := setQuadGrad(p, target)
		s.Step([]*nn.Param{p})
		after := setQuadGrad(p, target)
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
