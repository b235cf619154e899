package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestConv3DHoldsNoScratch: a training step gives every workspace float it
// took back before returning — the layer holds no scratch between calls —
// so all the memory-pressure hook has to drop is the retained input, and
// the next step must not change a bit.
func TestConv3DHoldsNoScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func() *Conv3D {
		return NewConv3D("c", 2, 3, 3, rand.New(rand.NewSource(7)))
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 4, 4, 4)
	g := tensor.Randn(rng, 0, 1, 2, 3, 4, 4, 4)

	// Control: two consecutive steps, no cache drop.
	ctrl := mk()
	ctrl.Forward(x)
	ctrl.Backward(g)
	out2 := ctrl.Forward(x)
	gin2 := ctrl.Backward(g)

	// Under test: caches dropped between the steps.
	sub := mk()
	before := tensor.ScratchStatsSnapshot()
	sub.Forward(x)
	sub.Backward(g)
	if gets := tensor.ScratchStatsSnapshot().Gets - before.Gets; gets == 0 || sub.ws.Mark() != (tensor.Mark{}) {
		t.Fatalf("a training step took %d workspace buffers and kept some of them", gets)
	}
	sub.DropCaches()
	if sub.input.Buf != nil {
		t.Fatal("DropCaches left the retained input behind")
	}
	out2b := sub.Forward(x)
	gin2b := sub.Backward(g)

	assertBitEqual(t, "forward after DropCaches", 1, out2.Data(), out2b.Data())
	assertBitEqual(t, "input grad after DropCaches", 1, gin2.Data(), gin2b.Data())
	assertBitEqual(t, "kernel grad after DropCaches", 1, ctrl.W.Grad.Data(), sub.W.Grad.Data())
}
