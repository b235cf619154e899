package unet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestDropCachesBitNeutralAcrossSteps: releasing everything the network
// retains between two training steps — every owned buffer included — must
// leave nothing behind, and the second step, which lays the buffers out
// again, must not change a bit.
func TestDropCachesBitNeutralAcrossSteps(t *testing.T) {
	cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 4}
	rng := rand.New(rand.NewSource(8))
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)

	step := func(u *UNet) *tensor.Tensor {
		u.ZeroGrads()
		out := u.Forward(x)
		u.Backward(tensor.Randn(rand.New(rand.NewSource(9)), 0, 1, out.Shape()...))
		return out
	}

	ctrl := MustNew(cfg)
	step(ctrl)
	outC := step(ctrl)

	sub := MustNew(cfg)
	step(sub)
	if retainedFloats(sub) == 0 {
		t.Fatal("test is vacuous: a training step retained nothing")
	}
	sub.DropCaches()
	if n := retainedFloats(sub); n != 0 {
		t.Fatalf("DropCaches left %d floats of activations and gradients reachable", n)
	}
	outS := step(sub)

	for i, v := range outC.Data() {
		if outS.Data()[i] != v {
			t.Fatal("forward diverges after DropCaches")
		}
	}
	cp, sp := ctrl.Params(), sub.Params()
	for i := range cp {
		a, b := cp[i].Grad.Data(), sp[i].Grad.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("gradient of %s diverges after DropCaches", cp[i].Name)
			}
		}
	}
}

// retainedFloats walks the network's object graph and counts the float32
// storage reachable from it other than parameter values and gradients: what
// a training step leaves behind for DropCaches to release.
func retainedFloats(u *UNet) int {
	params := map[*float32]bool{}
	for _, p := range u.Params() {
		params[&p.Value.Data()[0]] = true
		params[&p.Grad.Data()[0]] = true
	}
	total := 0
	seen := map[uintptr]bool{}
	floats := reflect.TypeOf([]float32(nil))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Type() == floats {
				if v.Cap() > 0 && !params[(*float32)(v.UnsafePointer())] {
					total += v.Cap()
				}
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(u))
	return total
}

// TestTrainingStepHoldsNoScratch: every scratch buffer a training step draws
// is back in the pool when the step returns — the convolutions keep no patch
// or halo buffers between calls — so DropCaches has only references to drop.
func TestTrainingStepHoldsNoScratch(t *testing.T) {
	cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 4}
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
