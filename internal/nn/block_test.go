package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// The standalone Conv3D → BatchNorm → ReLU chain is the fused block's oracle:
// everything the block produces must carry the chain's bits exactly — not
// within a tolerance, and with −0 and NaN told apart.

func assertSameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func assertSameFloat64s(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// site is a body-site shape: channels, kernel and the [n, ·, d, h, w] input.
type site struct {
	name       string
	inC, outC  int
	k          int
	n, d, h, w int
}

// benchNetSites are the ten body sites of the benchmark's network
// (PaperConfig at BaseFilters 8, Steps 3, batch 2, 16³ volumes).
var benchNetSites = []site{
	{"enc1.a", 4, 8, 3, 2, 16, 16, 16},
	{"enc1.b", 8, 8, 3, 2, 16, 16, 16},
	{"enc2.a", 8, 16, 3, 2, 8, 8, 8},
	{"enc2.b", 16, 16, 3, 2, 8, 8, 8},
	{"enc3.a", 16, 32, 3, 2, 4, 4, 4},
	{"enc3.b", 32, 32, 3, 2, 4, 4, 4},
	{"dec2.a", 48, 16, 3, 2, 8, 8, 8},
	{"dec2.b", 16, 16, 3, 2, 8, 8, 8},
	{"dec1.a", 24, 8, 3, 2, 16, 16, 16},
	{"dec1.b", 8, 8, 3, 2, 16, 16, 16},
}

var awkwardSites = []site{
	{"5x6x7", 3, 5, 3, 2, 5, 6, 7},
	{"w1", 2, 3, 3, 2, 4, 3, 1},
	{"ic1", 1, 4, 3, 3, 3, 4, 5},
	{"k1", 3, 2, 1, 2, 3, 5, 2},
	{"k5", 2, 2, 5, 1, 4, 4, 6},
}

// chain is the oracle: the three standalone layers the block replaces. A
// direct chain runs its convolution through the serial direct-loop reference
// kernels (reference_test.go) instead of the GEMM passes, so the block must
// follow it within the parity bounds rather than bit for bit.
type chain struct {
	conv    *Conv3D
	bn      *BatchNorm
	relu    *ReLU
	direct  bool
	workers int
}

// newPair builds a chain and a block with identical parameters and running
// statistics, off their defaults so no pass is trivially the identity (γ
// takes both signs, β shifts the ReLU's cut).
func newPair(s site, workers int) (*chain, *ConvBNReLU) {
	c := &chain{
		conv:    NewConv3D("s", s.inC, s.outC, s.k, rand.New(rand.NewSource(11))),
		bn:      NewBatchNorm("s", s.outC),
		relu:    NewReLU(),
		workers: workers,
	}
	b := NewConvBNReLU("s", s.inC, s.outC, s.k, rand.New(rand.NewSource(11)))
	rng := rand.New(rand.NewSource(12))
	for ci := 0; ci < s.outC; ci++ {
		g, bt, bias := float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
		mean, variance := rng.NormFloat64(), 0.5+rng.Float64()
		c.bn.Gamma.Value.Data()[ci], b.BN.Gamma.Value.Data()[ci] = g, g
		c.bn.Beta.Value.Data()[ci], b.BN.Beta.Value.Data()[ci] = bt, bt
		c.conv.B.Value.Data()[ci], b.Conv.B.Value.Data()[ci] = bias, bias
		c.bn.RunningMean[ci], b.BN.RunningMean[ci] = mean, mean
		c.bn.RunningVar[ci], b.BN.RunningVar[ci] = variance, variance
	}
	c.conv.SetWorkers(workers)
	c.bn.SetWorkers(workers)
	c.relu.SetWorkers(workers)
	b.SetWorkers(workers)
	return c, b
}

func (c *chain) params() []*Param { return append(c.conv.Params(), c.bn.Params()...) }

func (c *chain) setTraining(training bool) { c.bn.SetTraining(training) }

func (c *chain) forward(x *tensor.Tensor) *tensor.Tensor {
	var y *tensor.Tensor
	if c.direct {
		y = c.conv.forwardSerial(x)
	} else {
		y = c.conv.Forward(x)
	}
	return c.relu.Forward(c.bn.Forward(y))
}

func (c *chain) backward(g *tensor.Tensor) *tensor.Tensor {
	gy := c.bn.Backward(c.relu.Backward(g))
	if c.direct {
		return c.conv.backwardSerial(gy)
	}
	return c.conv.Backward(gy)
}

func (c *chain) infer(x *tensor.Tensor) *tensor.Tensor {
	if c.direct {
		return c.relu.Infer(c.bn.Infer(c.conv.forwardSerial(x)))
	}
	return c.relu.Infer(c.bn.Infer(c.conv.Infer(x)))
}

// match asserts that the block's got follows the chain's want: bit for bit
// against the GEMM chain, within assertWithinScaledULP against the direct
// one.
func (c *chain) match(t *testing.T, what string, want, got []float32, maxULP uint32) {
	t.Helper()
	if c.direct {
		assertWithinScaledULP(t, what, c.workers, want, got, maxULP)
		return
	}
	assertSameBits(t, what, want, got)
}

// assertWithinScaledULP is assertWithinULP with a second way to pass: a drift
// of at most maxULP units in the last place of the tensor's largest
// magnitude. The direct reference sums a bench_net site's thousands of
// voxels one by one in float32, so an element that cancels to well below its
// partial sums (a kernel gradient near zero, BatchNorm's bias gradient of
// pure rounding noise) carries rounding error at the scale of the whole
// tensor, not its own.
func assertWithinScaledULP(t *testing.T, what string, workers int, want, got []float32, maxULP uint32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s (workers=%d): length %d != %d", what, workers, len(got), len(want))
	}
	var scale float32
	for _, v := range want {
		scale = max(scale, float32(math.Abs(float64(v))))
	}
	bound := max(float64(maxULP)*float64(math.Nextafter32(scale, float32(math.Inf(1)))-scale), absFloor)
	var worst float64
	for i := range want {
		diff := math.Abs(float64(want[i]) - float64(got[i]))
		worst = max(worst, diff)
		// The negated <= form fails on NaN too.
		if ulpDiff(want[i], got[i]) > maxULP && !(diff <= bound) {
			t.Fatalf("%s (workers=%d): element %d = %v, want %v (drift %.3g > %d ULP of %v)",
				what, workers, i, got[i], want[i], diff, maxULP, scale)
		}
	}
	t.Logf("%s (workers=%d): max drift %.3g (%.3g of the bound)", what, workers, worst, worst/bound)
}

// matchStats is match for the float64 running statistics, which the direct
// chain is held to at float32 precision.
func (c *chain) matchStats(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if !c.direct {
		assertSameFloat64s(t, what, want, got)
		return
	}
	w32, g32 := make([]float32, len(want)), make([]float32, len(got))
	for i := range want {
		w32[i], g32[i] = float32(want[i]), float32(got[i])
	}
	assertWithinScaledULP(t, what, c.workers, w32, g32, forwardMaxULP)
}

// compareStep runs one training step — and, when forwardOnly is set too, one
// Infer and one evaluation-mode Forward — through both and compares every
// product.
func compareStep(t *testing.T, c *chain, b *ConvBNReLU, s site, n int, rng *rand.Rand, forwardOnly bool) {
	t.Helper()
	x := randTensor(rng, n, s.inC, s.d, s.h, s.w)
	g := randTensor(rng, n, s.outC, s.d, s.h, s.w)
	xKeep, gKeep := x.Clone(), g.Clone()

	ZeroGrads(c.params())
	ZeroGrads(b.Params())
	c.setTraining(true)
	b.SetTraining(true)
	want := c.forward(x)
	got := b.Forward(x)
	c.match(t, "training output", want.Data(), got.Data(), forwardMaxULP)
	c.match(t, "x̂", c.bn.xhat.Data(), b.fwdXhat.Data(), forwardMaxULP)
	wantIn := c.backward(g)
	gotIn := b.Backward(g.Clone()) // the block overwrites the gradient it is given
	c.match(t, "input gradient", wantIn.Data(), gotIn.Data(), backwardMaxULP)
	for i, p := range c.params() {
		if c.direct && p == c.conv.B {
			// BatchNorm makes the convolution bias's gradient zero in exact
			// arithmetic: both sides hold only the rounding noise of a sum
			// over every voxel, which has no reference value. The GEMM
			// chain holds it to the bit.
			continue
		}
		c.match(t, "gradient of "+p.Name, p.Grad.Data(), b.Params()[i].Grad.Data(), backwardMaxULP)
	}
	c.matchStats(t, "running mean", c.bn.RunningMean, b.BN.RunningMean)
	c.matchStats(t, "running var", c.bn.RunningVar, b.BN.RunningVar)
	assertSameBits(t, "input after the step", xKeep.Data(), x.Data())
	assertSameBits(t, "caller's gradient after the step", gKeep.Data(), g.Data())
	if !forwardOnly {
		return
	}

	// Infer under the training flag is the evaluation-mode forward.
	wantInfer, gotInfer := c.infer(x), b.Infer(x)
	c.match(t, "Infer", wantInfer.Data(), gotInfer.Data(), forwardMaxULP)

	c.setTraining(false)
	b.SetTraining(false)
	wantEval := c.forward(x)
	gotEval := b.Forward(x)
	c.match(t, "evaluation output", wantEval.Data(), gotEval.Data(), forwardMaxULP)
	assertSameBits(t, "Infer vs evaluation Forward", gotEval.Data(), gotInfer.Data())
	tensor.Recycle(wantInfer)
	tensor.Recycle(gotInfer)
	assertSameBits(t, "input after the forward passes", xKeep.Data(), x.Data())
}

// compareSpecials runs the evaluation-mode Forward and Infer through the GEMM
// chain and the block on an input with NaN, ±Inf and −0 voxels sprinkled
// through it, with channel 0's running variance zero (rstd = 1/√ε), and
// compares them bit for bit.
func compareSpecials(t *testing.T, c *chain, b *ConvBNReLU, s site) {
	t.Helper()
	c.bn.RunningVar[0], b.BN.RunningVar[0] = 0, 0
	rng := rand.New(rand.NewSource(18))
	x := randTensor(rng, s.n, s.inC, s.d, s.h, s.w)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	xd := x.Data()
	for i := 0; i < 4+len(xd)/1000; i++ {
		xd[rng.Intn(len(xd))] = specials[i%len(specials)]
	}
	c.setTraining(false)
	b.SetTraining(false)
	want := c.forward(x)
	assertSameBits(t, "evaluation output", want.Data(), b.Forward(x).Data())
	got := b.Infer(x)
	assertSameBits(t, "Infer", want.Data(), got.Data())
	tensor.Recycle(got)
}

// TestBlockMatchesChain: the block against the chain on the ten bench_net
// sites and on awkward shapes, at 1/2/4 workers — bit for bit against the
// GEMM chain, within the parity bounds against the direct one; at two
// workers a second training step reuses every owned buffer, stale contents
// and all. The specials subtests hold the evaluation-mode forward to the
// GEMM chain on non-finite and −0 inputs and a zero-variance channel, at a
// full-tile site, one of three K slices and one with ragged outC and
// packed B.
func TestBlockMatchesChain(t *testing.T) {
	for _, oracle := range []string{"gemm", "direct"} {
		for _, workers := range []int{1, 2, 4} {
			for _, s := range append(append([]site{}, benchNetSites...), awkwardSites...) {
				t.Run(fmt.Sprintf("%s/w%d/%s", oracle, workers, s.name), func(t *testing.T) {
					c, b := newPair(s, workers)
					c.direct = oracle == "direct"
					rng := rand.New(rand.NewSource(13))
					compareStep(t, c, b, s, s.n, rng, true)
					if workers == 2 {
						compareStep(t, c, b, s, s.n, rng, false)
					}
				})
			}
			if oracle != "gemm" {
				continue
			}
			for _, s := range []site{benchNetSites[1], benchNetSites[6], awkwardSites[0]} {
				t.Run(fmt.Sprintf("gemm/w%d/%s_specials", workers, s.name), func(t *testing.T) {
					c, b := newPair(s, workers)
					compareSpecials(t, c, b, s)
				})
			}
		}
	}
}

// TestBlockGrowAndReslice: one block fed batch 1, then 3, then 2 grows its
// buffers once and reslices them after, matching the chain at every size.
func TestBlockGrowAndReslice(t *testing.T) {
	s := site{"grow", 3, 4, 3, 0, 4, 5, 6}
	c, b := newPair(s, 2)
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 3, 2} {
		compareStep(t, c, b, s, n, rng, true)
	}
	ZeroGrads(b.Params())
	b.SetTraining(true)
	x := randTensor(rng, 3, s.inC, s.d, s.h, s.w)
	y3 := b.Forward(x)
	b.Backward(randTensor(rng, y3.Shape()...))
	y2 := b.Forward(randTensor(rng, 2, s.inC, s.d, s.h, s.w))
	if &y3.Data()[0] != &y2.Data()[0] {
		t.Fatal("a smaller batch reallocated the output buffer instead of reslicing it")
	}
}

// heapBytesPer returns the heap bytes allocated per call of fn, averaged over
// calls, with the collector running.
func heapBytesPer(calls int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// TestBlockOwnedBuffersSteadyState: once laid out, a block's training step
// and its Infer allocate no activation — the heap grows by less than half of
// one output tensor per call (the chain allocates seven), with the collector
// running; the slack is for a scratch-pool miss refilling a packing panel.
func TestBlockOwnedBuffersSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	s := benchNetSites[1]
	_, b := newPair(s, 1)
	rng := rand.New(rand.NewSource(15))
	x := randTensor(rng, s.n, s.inC, s.d, s.h, s.w)
	g := randTensor(rng, s.n, s.outC, s.d, s.h, s.w)
	scratch := g.Clone()
	step := func() {
		scratch.CopyFrom(g)
		b.Forward(x)
		b.Backward(scratch)
		tensor.Recycle(b.Infer(x))
	}
	step()
	step()
	perStep := heapBytesPer(16, step)
	if limit := uint64(g.Size() * 4 / 2); perStep > limit {
		t.Fatalf("steady-state block step allocates %d B, want < %d (one output is %d B)",
			perStep, limit, g.Size()*4)
	}
}

// TestBlockBackwardNeedsTrainingForward: Backward without a training-mode
// Forward — before any, after an evaluation-mode one, after DropCaches —
// panics instead of reading stale buffers.
func TestBlockBackwardNeedsTrainingForward(t *testing.T) {
	s := awkwardSites[0]
	_, b := newPair(s, 1)
	rng := rand.New(rand.NewSource(16))
	x := randTensor(rng, s.n, s.inC, s.d, s.h, s.w)
	g := randTensor(rng, s.n, s.outC, s.d, s.h, s.w)
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Backward %s did not panic", what)
			}
		}()
		b.Backward(g.Clone())
	}
	mustPanic("before Forward")
	b.SetTraining(false)
	b.Forward(x)
	mustPanic("after an evaluation-mode Forward")
	b.SetTraining(true)
	b.Forward(x)
	b.DropCaches()
	mustPanic("after DropCaches")
	if b.Conv.input != nil || b.fwdY != nil {
		t.Fatal("DropCaches left a reference behind")
	}
}

// TestReLUSelectMatchesBranch pins the branch-free rectifier to the branchy
// definition it replaced on every class of float, the ones a select could
// get wrong included.
func TestReLUSelectMatchesBranch(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	inf := float32(math.Inf(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-45, -1e-45, inf, -inf, nan, negNaN,
		math.MaxFloat32, -math.MaxFloat32, 3.5, -2.25}
	x := tensor.FromSlice(append([]float32(nil), vals...), 1, 1, 1, 1, len(vals))
	g := randTensor(rand.New(rand.NewSource(17)), 1, 1, 1, 1, len(vals))

	wantY, wantG := make([]float32, len(vals)), make([]float32, len(vals))
	for i, v := range vals {
		if v > 0 {
			wantY[i], wantG[i] = v, g.Data()[i]
		}
	}
	r := NewReLU()
	assertSameBits(t, "ReLU.Forward", wantY, r.Forward(x).Data())
	assertSameBits(t, "ReLU.Backward", wantG, r.Backward(g).Data())
	assertSameBits(t, "ReLU.Infer", wantY, r.Infer(x).Data())
}
