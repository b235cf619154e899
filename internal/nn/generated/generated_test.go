package generated_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/unet"
)

func generatedEngine(t *testing.T) nn.ConvEngine {
	t.Helper()
	e, ok := nn.LookupConvEngine("generated")
	if !ok {
		t.Fatal("generated backend did not register")
	}
	return e
}

// TestSupportsWholePaperTable asserts the emitted kernel set covers every
// shape of the paper U-Net — each spec in unet.PaperConfig().ConvShapes()
// must resolve to the generated backend, none may silently fall back.
func TestSupportsWholePaperTable(t *testing.T) {
	e := generatedEngine(t)
	specs := unet.PaperConfig().ConvShapes()
	if len(specs) == 0 {
		t.Fatal("paper config reports no conv shapes")
	}
	for _, spec := range specs {
		if b := nn.ResolveBackend(e, spec); b.Name() != "generated" {
			t.Errorf("paper shape %v resolves to %q, want generated", spec, b.Name())
		}
	}
}

// TestOffTableShapesFallBack pins the other side: shapes outside the paper
// table route down the registry chain to gemm.
func TestOffTableShapesFallBack(t *testing.T) {
	e := generatedEngine(t)
	for _, spec := range []nn.ConvSpec{
		{Kernel: 3, Stride: 1, InC: 5, OutC: 8},                     // off-table channels
		{Kernel: 5, Stride: 1, InC: 4, OutC: 8},                     // off-table kernel
		{Transposed: true, Kernel: 3, Stride: 3, InC: 16, OutC: 16}, // off-table up kernel
	} {
		if b := nn.ResolveBackend(e, spec); b.Name() != "gemm" {
			t.Errorf("off-table shape %v resolves to %q, want gemm", spec, b.Name())
		}
	}
}

// TestPaperUNetGeneratedMatchesGEMM runs a full training step of the paper
// network — every layer shape the backend specializes — under the generated
// and gemm engines and bounds the drift: both compute the same sums, the
// generated kernels only reassociate them, so outputs (through a sigmoid)
// and gradients must agree to float32 reassociation noise.
func TestPaperUNetGeneratedMatchesGEMM(t *testing.T) {
	build := func(e nn.ConvEngine) *unet.UNet {
		cfg := unet.PaperConfig()
		cfg.Seed = 11
		cfg.Engine = e
		return unet.MustNew(cfg)
	}
	v := unet.PaperConfig().MinVolume()
	x := tensor.Randn(rand.New(rand.NewSource(3)), 0, 1, 1, 4, v, v, v)
	grad := tensor.Randn(rand.New(rand.NewSource(7)), 0, 1, 1, 1, v, v, v)

	ref := build(nn.EngineGEMM)
	refOut := ref.Forward(x)
	ref.Backward(grad)

	gen := build(generatedEngine(t))
	genOut := gen.Forward(x)
	gen.Backward(grad)

	closeEnough := func(what string, want, got []float32, tol float64) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: length %d != %d", what, len(got), len(want))
		}
		worst := 0.0
		for i := range want {
			d := math.Abs(float64(want[i]) - float64(got[i]))
			if d > worst {
				worst = d
			}
			if d > tol {
				t.Fatalf("%s: element %d = %v, want %v (|Δ|=%g > %g)", what, i, got[i], want[i], d, tol)
			}
		}
		t.Logf("%s: max |Δ| %g", what, worst)
	}
	closeEnough("network output", refOut.Data(), genOut.Data(), 1e-4)
	refP, genP := ref.Params(), gen.Params()
	if len(refP) != len(genP) {
		t.Fatalf("parameter count mismatch: %d != %d", len(refP), len(genP))
	}
	for i := range refP {
		closeEnough("grad "+refP[i].Name, refP[i].Grad.Data(), genP[i].Grad.Data(), 1e-2)
	}
}
