package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// dotLoss is the scalar probe L = Σ out·r used for gradient checking;
// dL/d(out) = r.
func dotLoss(out, r *tensor.Tensor) float64 { return tensor.Dot(out, r) }

// relErr returns |a-b| / max(1e-6, |a|+|b|).
func relErr(a, b float64) float64 {
	den := math.Abs(a) + math.Abs(b)
	if den < 1e-6 {
		den = 1e-6
	}
	return math.Abs(a-b) / den
}

// checkGradients verifies the layer's analytic input and parameter gradients
// against central finite differences of the probe loss.
func checkGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	out := layer.Forward(x)
	r := tensor.Randn(rng, 0, 1, out.Shape()...)

	ZeroGrads(layer.Params())
	gradIn := layer.Backward(r.Clone())

	const h = 1e-2

	// Input gradient.
	xd := x.Data()
	for i := range xd {
		orig := xd[i]
		xd[i] = orig + h
		lp := dotLoss(layer.Forward(x), r)
		xd[i] = orig - h
		lm := dotLoss(layer.Forward(x), r)
		xd[i] = orig
		num := (lp - lm) / (2 * h)
		ana := float64(gradIn.Data()[i])
		if relErr(num, ana) > tol && math.Abs(num-ana) > 1e-3 {
			t.Fatalf("input grad [%d]: analytic %v vs numeric %v", i, ana, num)
		}
	}

	// Parameter gradients.
	for _, p := range layer.Params() {
		pd := p.Value.Data()
		gd := p.Grad.Data()
		for i := range pd {
			orig := pd[i]
			pd[i] = orig + h
			lp := dotLoss(layer.Forward(x), r)
			pd[i] = orig - h
			lm := dotLoss(layer.Forward(x), r)
			pd[i] = orig
			num := (lp - lm) / (2 * h)
			ana := float64(gd[i])
			if relErr(num, ana) > tol && math.Abs(num-ana) > 1e-3 {
				t.Fatalf("%s grad [%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func randInput(seed int64, shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	return tensor.Randn(rng, 0, 1, shape...)
}

func TestConv3DForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv3D("c", 1, 1, 3, rng)
	// Identity-like kernel: only the centre tap is 1.
	c.W.Value.Zero()
	c.W.Value.Set(1, 0, 0, 1, 1, 1)
	c.B.Value.Set(0.5, 0)
	x := randInput(2, 1, 1, 3, 3, 3)
	y := c.Forward(x)
	if !y.SameShape(x) {
		t.Fatalf("same-padding conv changed shape: %v", y.Shape())
	}
	for i := range x.Data() {
		want := x.Data()[i] + 0.5
		if math.Abs(float64(y.Data()[i]-want)) > 1e-6 {
			t.Fatalf("centre-tap conv mismatch at %d: got %v want %v", i, y.Data()[i], want)
		}
	}
}

func TestConv3DShiftKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv3D("c", 1, 1, 3, rng)
	c.W.Value.Zero()
	c.B.Value.Zero()
	// Tap at kx=2 reads the input one voxel to the right (x+1).
	c.W.Value.Set(1, 0, 0, 1, 1, 2)
	x := tensor.New(1, 1, 1, 1, 4)
	for i := 0; i < 4; i++ {
		x.Set(float32(i+1), 0, 0, 0, 0, i)
	}
	y := c.Forward(x)
	want := []float32{2, 3, 4, 0} // right edge sees zero padding
	for i, w := range want {
		if y.At(0, 0, 0, 0, i) != w {
			t.Fatalf("shift conv at %d: got %v want %v", i, y.At(0, 0, 0, 0, i), w)
		}
	}
}

func TestConv3DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv3D("c", 2, 3, 3, rng)
	checkGradients(t, c, randInput(4, 1, 2, 3, 4, 3), 0.05)
}

func TestConv3D1x1Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv3D("c", 3, 1, 1, rng)
	checkGradients(t, c, randInput(5, 2, 3, 2, 2, 2), 0.05)
}

func TestConv3DBatchIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv3D("c", 2, 2, 3, rng)
	a := randInput(10, 1, 2, 4, 4, 4)
	b := randInput(11, 1, 2, 4, 4, 4)
	// Batched forward must equal per-sample forwards.
	batch := tensor.New(2, 2, 4, 4, 4)
	copy(batch.Data()[:a.Size()], a.Data())
	copy(batch.Data()[a.Size():], b.Data())
	yBatch := c.Forward(batch)
	ya := c.Forward(a)
	yb := c.Forward(b)
	for i := 0; i < ya.Size(); i++ {
		if yBatch.Data()[i] != ya.Data()[i] {
			t.Fatal("batch sample 0 differs from individual forward")
		}
		if yBatch.Data()[ya.Size()+i] != yb.Data()[i] {
			t.Fatal("batch sample 1 differs from individual forward")
		}
	}
}

func TestConvTranspose3DShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	up := NewConvTranspose3D("up", 4, 2, 2, rng)
	y := up.Forward(randInput(6, 1, 4, 2, 3, 4))
	want := []int{1, 2, 4, 6, 8}
	for i, d := range want {
		if y.Shape()[i] != d {
			t.Fatalf("upconv shape %v, want %v", y.Shape(), want)
		}
	}
}

func TestConvTranspose3DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	up := NewConvTranspose3D("up", 1, 1, 2, rng)
	up.W.Value.Fill(1)
	up.B.Value.Zero()
	x := tensor.New(1, 1, 1, 1, 2)
	x.Set(3, 0, 0, 0, 0, 0)
	x.Set(5, 0, 0, 0, 0, 1)
	y := up.Forward(x)
	// Each input voxel paints a 2x2x2 block with its value.
	for z := 0; z < 2; z++ {
		for yy := 0; yy < 2; yy++ {
			for xx := 0; xx < 4; xx++ {
				want := float32(3)
				if xx >= 2 {
					want = 5
				}
				if got := y.At(0, 0, z, yy, xx); got != want {
					t.Fatalf("at (%d,%d,%d): got %v want %v", z, yy, xx, got, want)
				}
			}
		}
	}
}

func TestConvTranspose3DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	up := NewConvTranspose3D("up", 2, 3, 2, rng)
	checkGradients(t, up, randInput(7, 1, 2, 2, 2, 3), 0.05)
}

func TestMaxPool3DForward(t *testing.T) {
	p := NewMaxPool3D(2)
	x := tensor.New(1, 1, 2, 2, 2)
	for i := 0; i < 8; i++ {
		x.Data()[i] = float32(i)
	}
	y := p.Forward(x)
	if y.Size() != 1 || y.Data()[0] != 7 {
		t.Fatalf("pool got %v", y.Data())
	}
}

func TestMaxPool3DBackwardRouting(t *testing.T) {
	p := NewMaxPool3D(2)
	x := tensor.New(1, 1, 2, 2, 2)
	x.Data()[5] = 10 // winner
	p.Forward(x)
	g := tensor.Full(2.5, 1, 1, 1, 1, 1)
	gi := p.Backward(g)
	for i, v := range gi.Data() {
		want := float32(0)
		if i == 5 {
			want = 2.5
		}
		if v != want {
			t.Fatalf("grad routed wrong at %d: %v", i, v)
		}
	}
}

func TestMaxPool3DGradients(t *testing.T) {
	// Use distinct values so the argmax is stable under ±h perturbation.
	x := tensor.New(1, 2, 2, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float32((i*7)%97) / 10
	}
	checkGradients(t, NewMaxPool3D(2), x, 0.05)
}

// TestMaxPool3DMatchesBranchyLoop holds the branch-free windows of Forward
// and Infer to the branchy loop they replaced (maxPoolSerial), values and
// winners bit for bit, on inputs drawn mostly from a handful of values — NaN
// (first in a window and later), ties, −0 against +0, ±Inf — at pool sizes 2
// and 3 and 1/2 workers.
func TestMaxPool3DMatchesBranchyLoop(t *testing.T) {
	few := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	rng := rand.New(rand.NewSource(19))
	for _, s := range []int{2, 3} {
		// Output rows of 4 and 8 run only the four-abreast loop, the others
		// its tail too.
		for _, ow := range []int{1, 2, 3, 4, 5, 8} {
			x := randTensor(rng, 2, 3, 2*s, 3*s, ow*s)
			for i := range x.Data() {
				if rng.Intn(4) != 0 {
					x.Data()[i] = few[rng.Intn(len(few))]
				}
			}
			want, wantArg := maxPoolSerial(x, s)
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("size %d width %d workers %d", s, ow, workers)
				p := NewMaxPool3D(s)
				p.SetWorkers(workers)
				assertSameBits(t, name+" Forward", want.Data(), p.Forward(x).Data())
				for i, a := range wantArg {
					if p.argmax[i] != a {
						t.Fatalf("%s: output %d won by input %d, want %d", name, i, p.argmax[i], a)
					}
				}
				assertSameBits(t, name+" Infer", want.Data(), p.Infer(x).Data())
			}
		}
	}
}

func TestMaxPool3DPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMaxPool3D(2).Forward(tensor.New(1, 1, 3, 4, 4))
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	x := randInput(8, 4, 2, 4, 4, 4)
	x.Scale(3)
	x.Apply(func(v float32) float32 { return v + 7 })
	y := bn.Forward(x)
	// Per-channel mean ≈ 0 and variance ≈ 1 after normalization.
	spatial := 4 * 4 * 4
	for c := 0; c < 2; c++ {
		var sum, sq float64
		n := 0
		for ni := 0; ni < 4; ni++ {
			base := (ni*2 + c) * spatial
			for _, v := range y.Data()[base : base+spatial] {
				sum += float64(v)
				sq += float64(v) * float64(v)
				n++
			}
		}
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v", c, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d variance %v", c, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	x := randInput(9, 2, 1, 2, 2, 2)
	for i := 0; i < 20; i++ {
		bn.Forward(x)
	}
	mean, variance := bn.RunningMean[0], bn.RunningVar[0]
	y := bn.Infer(x)
	if bn.RunningMean[0] != mean || bn.RunningVar[0] != variance {
		t.Fatal("Infer moved the running statistics")
	}
	// Infer normalizes each sample with the running stats, not the batch's:
	// the first sample alone gets the bits it gets inside the batch.
	first := tensor.FromSlice(append([]float32(nil), x.Data()[:8]...), 1, 1, 2, 2, 2)
	y1 := bn.Infer(first)
	for i, v := range y1.Data() {
		if v != y.Data()[i] {
			t.Fatalf("element %d: %v alone, %v in the batch", i, v, y.Data()[i])
		}
	}
	// And running stats should be near the batch stats after many updates.
	if math.Abs(bn.RunningMean[0]-x.Mean()) > 0.05 {
		t.Fatalf("running mean %v vs batch mean %v", bn.RunningMean[0], x.Mean())
	}
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	checkGradients(t, bn, randInput(10, 2, 2, 2, 3, 2), 0.08)
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 1, 1, 1, 3)
	y := r.Forward(x)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Fatalf("relu got %v", y.Data())
	}
	g := r.Backward(tensor.Full(1, 1, 1, 1, 1, 3))
	if g.Data()[0] != 0 || g.Data()[2] != 1 {
		t.Fatalf("relu grad got %v", g.Data())
	}
}

func TestSigmoidRangeAndGradients(t *testing.T) {
	s := NewSigmoid()
	x := randInput(11, 1, 1, 2, 2, 2)
	x.Scale(4)
	y := s.Forward(x)
	for _, v := range y.Data() {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid out of range: %v", v)
		}
	}
	checkGradients(t, s, randInput(12, 1, 1, 2, 2, 2), 0.05)
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv3D("c", 4, 8, 3, rng)
	// 27·4·8 weights + 8 biases = 872, matching the paper's first conv.
	if n := ParamCount(c.Params()); n != 872 {
		t.Fatalf("param count %d, want 872", n)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv3D("c", 1, 1, 3, rng)
	c.Forward(randInput(16, 1, 1, 2, 2, 2))
	c.Backward(tensor.Ones(1, 1, 2, 2, 2))
	ZeroGrads(c.Params())
	if c.W.Grad.L2Norm() != 0 || c.B.Grad.L2Norm() != 0 {
		t.Fatal("gradients not cleared")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layers := []Layer{
		NewConv3D("c", 1, 1, 3, rng),
		NewConvTranspose3D("u", 1, 1, 2, rng),
		NewMaxPool3D(2),
		NewReLU(),
		NewSigmoid(),
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: Backward before Forward did not panic", l)
				}
			}()
			l.Backward(tensor.New(1, 1, 2, 2, 2))
		}()
	}
}

// TestBackwardRejectsMismatchedGradient feeds each layer a gradient whose
// shape differs from its forward output's — a smaller or larger batch, a
// different extent or channel count — and demands a panic that names both
// shapes, instead of gradients computed over the wrong extent or an index
// error from deep inside a kernel.
func TestBackwardRejectsMismatchedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		layer Layer
		in    []int // forward input
		grad  []int // the mismatched gradient
	}{
		{"BatchNorm smaller batch", NewBatchNorm("bn", 3), []int{2, 3, 2, 2, 2}, []int{1, 3, 2, 2, 2}},
		{"BatchNorm larger batch", NewBatchNorm("bn", 3), []int{2, 3, 2, 2, 2}, []int{3, 3, 2, 2, 2}},
		{"BatchNorm other extent", NewBatchNorm("bn", 3), []int{2, 3, 2, 2, 2}, []int{2, 3, 2, 2, 3}},
		{"Conv3D larger batch", NewConv3D("c", 2, 3, 3, rng), []int{1, 2, 4, 4, 4}, []int{2, 3, 4, 4, 4}},
		{"Conv3D smaller batch", NewConv3D("c", 2, 3, 3, rng), []int{2, 2, 4, 4, 4}, []int{1, 3, 4, 4, 4}},
		{"Conv3D other extent", NewConv3D("c", 2, 3, 3, rng), []int{1, 2, 4, 4, 4}, []int{1, 3, 4, 4, 3}},
		{"Conv3D other channels", NewConv3D("c", 2, 3, 3, rng), []int{1, 2, 4, 4, 4}, []int{1, 2, 4, 4, 4}},
		{"ConvTranspose3D larger batch", NewConvTranspose3D("u", 2, 3, 2, rng), []int{1, 2, 2, 2, 2}, []int{2, 3, 4, 4, 4}},
		{"ConvTranspose3D smaller batch", NewConvTranspose3D("u", 2, 3, 2, rng), []int{2, 2, 2, 2, 2}, []int{1, 3, 4, 4, 4}},
		{"ConvTranspose3D input extent", NewConvTranspose3D("u", 2, 3, 2, rng), []int{1, 2, 2, 2, 2}, []int{1, 3, 2, 2, 2}},
		{"ReLU smaller", NewReLU(), []int{2, 3, 2, 2, 2}, []int{1, 3, 2, 2, 2}},
		{"ReLU larger", NewReLU(), []int{1, 3, 2, 2, 2}, []int{2, 3, 2, 2, 2}},
		{"Sigmoid smaller", NewSigmoid(), []int{2, 1, 2, 2, 2}, []int{2, 1, 2, 2, 1}},
		{"Sigmoid larger", NewSigmoid(), []int{1, 1, 2, 2, 2}, []int{2, 1, 2, 2, 2}},
		{"MaxPool3D same size", NewMaxPool3D(2), []int{2, 4, 4, 4, 4}, []int{1, 8, 2, 2, 2}},
		{"MaxPool3D larger", NewMaxPool3D(2), []int{1, 2, 4, 4, 4}, []int{1, 2, 2, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := tc.layer.Forward(randTensor(rng, tc.in...))
			grad := randTensor(rng, tc.grad...)
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("gradient shape %v does not match the output's %v", grad.Shape(), out.Shape())
				if !strings.Contains(msg, want) {
					t.Fatalf("Backward panicked with %q, want a message containing %q", msg, want)
				}
			}()
			tc.layer.Backward(grad)
		})
	}
}

func TestGradAccumulationAcrossBackwards(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv3D("c", 1, 1, 3, rng)
	x := randInput(17, 1, 1, 2, 2, 2)
	g := tensor.Ones(1, 1, 2, 2, 2)

	c.Forward(x)
	c.Backward(g)
	once := c.W.Grad.Clone()

	ZeroGrads(c.Params())
	c.Forward(x)
	c.Backward(g)
	c.Forward(x)
	c.Backward(g)
	twice := c.W.Grad

	diff := tensor.Sub(twice, once)
	if tensor.MaxAbsDiff(diff, once) > 1e-4 {
		t.Fatal("gradients must accumulate additively across Backward calls")
	}
}
