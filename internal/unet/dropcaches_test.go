package unet

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestDropCachesBitNeutralAcrossSteps: releasing every retained cache
// between two training steps must not change the arithmetic of the second
// step, under either conv engine.
func TestDropCachesBitNeutralAcrossSteps(t *testing.T) {
	for _, name := range nn.ConvEngines() {
		engine, _ := nn.LookupConvEngine(name)
		cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
			Kernel: 3, UpKernel: 2, Seed: 4, Engine: engine}
		rng := rand.New(rand.NewSource(8))
		x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

		step := func(u *UNet) (*tensor.Tensor, *tensor.Tensor) {
			u.ZeroGrads()
			out := u.Forward(x)
			grad := tensor.Randn(rand.New(rand.NewSource(9)), 0, 1, out.Shape()...)
			gin := u.Backward(grad)
			return out, gin
		}

		ctrl := MustNew(cfg)
		step(ctrl)
		outC, ginC := step(ctrl)

		sub := MustNew(cfg)
		step(sub)
		sub.DropCaches()
		outS, ginS := step(sub)

		for i, v := range outC.Data() {
			if outS.Data()[i] != v {
				t.Fatalf("engine %v: forward diverges after DropCaches", engine)
			}
		}
		for i, v := range ginC.Data() {
			if ginS.Data()[i] != v {
				t.Fatalf("engine %v: input gradient diverges after DropCaches", engine)
			}
		}
		cp, sp := ctrl.Params(), sub.Params()
		for i := range cp {
			a, b := cp[i].Grad.Data(), sp[i].Grad.Data()
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("engine %v: gradient of %s diverges after DropCaches", engine, cp[i].Name)
				}
			}
		}
	}
}

// TestTrainingStepHoldsNoScratch: every scratch buffer a training step draws
// is back in the pool when the step returns — the convolutions keep no patch
// or halo buffers between calls — so DropCaches has only references to drop.
func TestTrainingStepHoldsNoScratch(t *testing.T) {
	cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 4, Engine: nn.EngineGEMM}
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(8))
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

	before := tensor.ScratchStatsSnapshot()
	out := u.Forward(x)
	u.Backward(tensor.New(out.Shape()...))
	after := tensor.ScratchStatsSnapshot()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts {
		t.Fatalf("a training step drew %d scratch buffers and returned %d", gets, puts)
	}
	u.DropCaches()
	if dropped := tensor.ScratchStatsSnapshot(); dropped.Puts != after.Puts {
		t.Fatalf("DropCaches returned %d scratch buffers; the network should hold none", dropped.Puts-after.Puts)
	}
}
