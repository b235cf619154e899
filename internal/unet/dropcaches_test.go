package unet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestDropCachesBitNeutralAcrossSteps: releasing everything the network
// retains between two training steps — every owned buffer included — must
// leave nothing behind, and neither the evaluation that follows (an Infer,
// as between an epoch's training and validation phases) nor the second
// step, which lays the buffers out again, may change a bit.
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

	eval := func(u *UNet) []float32 { return append([]float32(nil), u.Infer(x).Data()...) }

	ctrl := MustNew(cfg)
	step(ctrl)
	evalC := eval(ctrl)
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
	evalS := eval(sub)
	outS := step(sub)

	for i, v := range evalC {
		if evalS[i] != v {
			t.Fatal("Infer diverges after DropCaches")
		}
	}
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

// TestTrainingStepHoldsNoScratch: every workspace float a Forward, a
// Backward or an Infer takes is given back before it returns — the layers
// keep no patch or halo buffers between calls — so the network's workspace
// is fully released between calls, and Infer may run between a Forward and
// its Backward.
func TestTrainingStepHoldsNoScratch(t *testing.T) {
	cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 4}
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(8))
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)
	released := func(what string) {
		t.Helper()
		if u.ws.Mark() != (tensor.Mark{}) {
			t.Fatalf("%s returned with workspace floats still taken", what)
		}
	}

	before := tensor.ScratchStatsSnapshot()
	out := u.Forward(x)
	released("Forward")
	u.Infer(x)
	released("Infer")
	u.Backward(tensor.New(out.Shape()...))
	released("Backward")
	if tensor.ScratchStatsSnapshot().Gets == before.Gets {
		t.Fatal("test is vacuous: the calls took nothing from the workspace")
	}
}
