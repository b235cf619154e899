package unet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/loss"
	"repro/internal/tensor"
)

func tinyConfig() Config {
	return Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 2,
		Steps:       2,
		Kernel:      3,
		UpKernel:    2,
		Seed:        42,
	}
}

func TestPaperParameterCount(t *testing.T) {
	u := MustNew(PaperConfig())
	// The paper reports 406,793 parameters; the decoder wiring is
	// under-specified and our faithful reconstruction lands at 409,657
	// (0.70% above). Assert the exact value of our build so regressions
	// are caught, and the paper band as the reproduction criterion.
	got := u.ParamCount()
	if got != 409657 {
		t.Fatalf("paper-config parameter count = %d, want 409657", got)
	}
	if got < 400000 || got > 415000 {
		t.Fatalf("parameter count %d outside the paper band around 406,793", got)
	}
}

func TestFilterProgression(t *testing.T) {
	cfg := PaperConfig()
	want := []int{8, 16, 32, 64}
	for s := 1; s <= 4; s++ {
		if cfg.Filters(s) != want[s-1] {
			t.Fatalf("Filters(%d) = %d, want %d (paper: 8·2^(s−1))", s, cfg.Filters(s), want[s-1])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{InChannels: 0, OutChannels: 1, BaseFilters: 8, Steps: 4, Kernel: 3, UpKernel: 2},
		{InChannels: 4, OutChannels: 0, BaseFilters: 8, Steps: 4, Kernel: 3, UpKernel: 2},
		{InChannels: 4, OutChannels: 1, BaseFilters: 0, Steps: 4, Kernel: 3, UpKernel: 2},
		{InChannels: 4, OutChannels: 1, BaseFilters: 8, Steps: 1, Kernel: 3, UpKernel: 2},
		{InChannels: 4, OutChannels: 1, BaseFilters: 8, Steps: 4, Kernel: 4, UpKernel: 2},
		{InChannels: 4, OutChannels: 1, BaseFilters: 8, Steps: 4, Kernel: 3, UpKernel: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if _, err := New(PaperConfig()); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
}

func TestMinVolume(t *testing.T) {
	if got := PaperConfig().MinVolume(); got != 8 {
		t.Fatalf("paper MinVolume = %d, want 8 (three 2x poolings)", got)
	}
	if got := tinyConfig().MinVolume(); got != 2 {
		t.Fatalf("tiny MinVolume = %d, want 2", got)
	}
}

func TestForwardShapeAndRange(t *testing.T) {
	u := MustNew(tinyConfig())
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	y := u.Forward(x)
	want := []int{1, 1, 4, 4, 4}
	for i, d := range want {
		if y.Shape()[i] != d {
			t.Fatalf("output shape %v, want %v", y.Shape(), want)
		}
	}
	for _, v := range y.Data() {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output out of (0,1): %v", v)
		}
	}
}

func TestForwardRejectsIndivisibleVolume(t *testing.T) {
	u := MustNew(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible volume")
		}
	}()
	u.Forward(tensor.New(1, 2, 3, 4, 4))
}

func TestForwardDeterministic(t *testing.T) {
	u := MustNew(tinyConfig())
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	y1 := u.Forward(x).Clone()
	y2 := u.Forward(x)
	if tensor.MaxAbsDiff(y1, y2) != 0 {
		t.Fatal("forward must be deterministic")
	}
}

func TestSameSeedSameWeights(t *testing.T) {
	a := MustNew(tinyConfig())
	b := MustNew(tinyConfig())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param list lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if tensor.MaxAbsDiff(pa[i].Value, pb[i].Value) != 0 {
			t.Fatalf("param %s differs across same-seed builds", pa[i].Name)
		}
	}
}

// TestGradientCheck verifies end-to-end analytic gradients of the full U-Net
// (encoder, skips, decoder, head) against finite differences through the
// Dice loss, on a sampled subset of parameters.
func TestGradientCheck(t *testing.T) {
	u := MustNew(tinyConfig())
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	target := tensor.New(1, 1, 4, 4, 4)
	for i := range target.Data() {
		if rng.Float64() < 0.3 {
			target.Data()[i] = 1
		}
	}
	l := loss.NewDice()

	evalLoss := func() float64 {
		y := u.Forward(x)
		v, _ := l.Eval(y, target)
		return v
	}

	u.ZeroGrads()
	y := u.Forward(x)
	_, grad := l.Eval(y, target)
	u.Backward(grad)

	const h = 5e-3
	checked := 0
	for _, p := range u.Params() {
		pd := p.Value.Data()
		gd := p.Grad.Data()
		// Sample a few indices per parameter.
		for _, i := range []int{0, len(pd) / 2, len(pd) - 1} {
			orig := pd[i]
			pd[i] = orig + h
			lp := evalLoss()
			pd[i] = orig - h
			lm := evalLoss()
			pd[i] = orig
			num := (lp - lm) / (2 * h)
			ana := float64(gd[i])
			den := math.Abs(num) + math.Abs(ana)
			if den > 1e-4 && math.Abs(num-ana)/den > 0.15 && math.Abs(num-ana) > 5e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

// TestTrainingStepReducesLoss exercises one real optimization loop: the Dice
// loss on a fixed batch must decrease over a handful of SGD steps.
func TestTrainingStepReducesLoss(t *testing.T) {
	u := MustNew(tinyConfig())
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)
	target := tensor.New(2, 1, 4, 4, 4)
	for i := range target.Data() {
		if rng.Float64() < 0.4 {
			target.Data()[i] = 1
		}
	}
	l := loss.NewDice()

	first := -1.0
	last := -1.0
	lr := float32(0.1)
	for step := 0; step < 80; step++ {
		u.ZeroGrads()
		y := u.Forward(x)
		v, grad := l.Eval(y, target)
		if step == 0 {
			first = v
		}
		last = v
		u.Backward(grad)
		for _, p := range u.Params() {
			p.Value.AddScaled(-lr, p.Grad)
		}
	}
	if !(last < first*0.8) {
		t.Fatalf("loss did not drop enough: first %v last %v", first, last)
	}
}

func TestParamNamesUnique(t *testing.T) {
	u := MustNew(PaperConfig())
	seen := map[string]bool{}
	for _, p := range u.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestDeeperConfigScales(t *testing.T) {
	cfg := tinyConfig()
	cfg.Steps = 3
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 0, 1, 1, 2, 8, 8, 8)
	y := u.Forward(x)
	if y.Dim(2) != 8 {
		t.Fatalf("output depth %d, want 8", y.Dim(2))
	}
	u.Backward(tensor.Ones(y.Shape()...))
	// The gradient reached the far end of the deeper network: the first
	// block's kernel gradient is populated. (Backward no longer computes the
	// input gradient; conv input gradients are pinned at layer level by
	// nn.TestConvGoldenHash and nn.TestConvParity.)
	if p := u.Params()[0]; p.Name != "enc1.a.w" || p.Grad.L2Norm() == 0 {
		t.Fatalf("%s received no gradient", p.Name)
	}
}
