package unet

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit-for-bit)", what, i, got[i], want[i])
		}
	}
}

// chainNet is the network wired the way it was before the fused block: every
// body site a standalone Conv3D → BatchNorm → ReLU chain, every tensor between
// layers freshly allocated. It exists only as the oracle of
// TestBlockNetworkMatchesStandaloneLayers.
type chainNet struct {
	enc, dec [][]nn.Layer // per step: convA bnA reluA convB bnB reluB
	pools    []*nn.MaxPool3D
	ups      []*nn.ConvTranspose3D
	upC      []int
	head     *nn.Conv3D
	act      *nn.Sigmoid
	skips    []*tensor.Tensor
}

func newChainNet(cfg Config) *chainNet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	body := func(name string, in, f int) []nn.Layer {
		return []nn.Layer{
			nn.NewConv3D(name+".a", in, f, cfg.Kernel, rng), nn.NewBatchNorm(name+".a", f), nn.NewReLU(),
			nn.NewConv3D(name+".b", f, f, cfg.Kernel, rng), nn.NewBatchNorm(name+".b", f), nn.NewReLU(),
		}
	}
	c := &chainNet{}
	in := cfg.InChannels
	for s := 1; s <= cfg.Steps; s++ {
		c.enc = append(c.enc, body(fmt.Sprintf("enc%d", s), in, cfg.Filters(s)))
		if s < cfg.Steps {
			c.pools = append(c.pools, nn.NewMaxPool3D(cfg.UpKernel))
		}
		in = cfg.Filters(s)
	}
	for s := cfg.Steps - 1; s >= 1; s-- {
		below, f := cfg.Filters(s+1), cfg.Filters(s)
		c.ups = append(c.ups, nn.NewConvTranspose3D(fmt.Sprintf("dec%d.up", s), below, below, cfg.UpKernel, rng))
		c.upC = append(c.upC, below)
		c.dec = append(c.dec, body(fmt.Sprintf("dec%d", s), below+f, f))
	}
	c.head = nn.NewConv3D("head", cfg.BaseFilters, cfg.OutChannels, 1, rng)
	c.act = nn.NewSigmoid()
	return c
}

// layers lists every layer in the order UNet.Params lists their parameters.
func (c *chainNet) layers() []nn.Layer {
	var ls []nn.Layer
	for _, e := range c.enc {
		ls = append(ls, e...)
	}
	for i, d := range c.dec {
		ls = append(append(ls, c.ups[i]), d...)
	}
	return append(ls, c.head)
}

func (c *chainNet) configure(workers int) {
	for _, l := range append(c.layers(), c.act) {
		if w, ok := l.(nn.WorkerSetter); ok {
			w.SetWorkers(workers)
		}
	}
	for _, p := range c.pools {
		p.SetWorkers(workers)
	}
}

func (c *chainNet) params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range c.layers() {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (c *chainNet) auxState() map[string][]float64 {
	out := map[string][]float64{}
	for _, l := range c.layers() {
		if a, ok := l.(nn.AuxStater); ok {
			maps.Copy(out, a.AuxState())
		}
	}
	return out
}

// forward runs x through every layer's Forward, keeping the skips for
// backward — or, with infer set, through every layer's Infer.
func (c *chainNet) forward(x *tensor.Tensor, infer bool) *tensor.Tensor {
	run := func(l nn.Layer, h *tensor.Tensor) *tensor.Tensor {
		if infer {
			return l.Infer(h)
		}
		return l.Forward(h)
	}
	var skips []*tensor.Tensor
	h := x
	for i, e := range c.enc {
		for _, l := range e {
			h = run(l, h)
		}
		if i < len(c.pools) {
			skips = append(skips, h)
			h = run(c.pools[i], h)
		}
	}
	for i, d := range c.dec {
		h = concat(run(c.ups[i], h), skips[len(skips)-1-i])
		for _, l := range d {
			h = run(l, h)
		}
	}
	if !infer {
		c.skips = skips
	}
	return run(c.act, run(c.head, h))
}

// concat is the channel concatenation [a, b] as a fresh tensor.
func concat(a, b *tensor.Tensor) *tensor.Tensor {
	s := a.Shape()
	out := tensor.New(s[0], s[1]+b.Dim(1), s[2], s[3], s[4])
	pa, pb := a.Size()/s[0], b.Size()/s[0]
	for ni := 0; ni < s[0]; ni++ {
		copy(out.Data()[ni*(pa+pb):], a.Data()[ni*pa:][:pa])
		copy(out.Data()[ni*(pa+pb)+pa:], b.Data()[ni*pb:][:pb])
	}
	return out
}

// split is concat's gradient: g's first ca channels and the rest, as fresh
// tensors.
func split(g *tensor.Tensor, ca int) (ga, gb *tensor.Tensor) {
	s := g.Shape()
	ga = tensor.New(s[0], ca, s[2], s[3], s[4])
	gb = tensor.New(s[0], s[1]-ca, s[2], s[3], s[4])
	pa, pb := ga.Size()/s[0], gb.Size()/s[0]
	for ni := 0; ni < s[0]; ni++ {
		copy(ga.Data()[ni*pa:][:pa], g.Data()[ni*(pa+pb):])
		copy(gb.Data()[ni*pb:][:pb], g.Data()[ni*(pa+pb)+pa:])
	}
	return ga, gb
}

func (c *chainNet) backward(gradOut *tensor.Tensor) {
	back := func(ls []nn.Layer, g *tensor.Tensor) *tensor.Tensor {
		for i := len(ls) - 1; i >= 0; i-- {
			g = ls[i].Backward(g)
		}
		return g
	}
	g := c.head.Backward(c.act.Backward(gradOut))
	skipGrads := make([]*tensor.Tensor, len(c.skips))
	for i := len(c.dec) - 1; i >= 0; i-- {
		g = back(c.dec[i], g)
		gUp, gSkip := split(g, c.upC[i])
		skipGrads[len(c.skips)-1-i] = gSkip
		g = c.ups[i].Backward(gUp)
	}
	for i := len(c.enc) - 1; i >= 0; i-- {
		if i < len(c.pools) {
			g = c.pools[i].Backward(g)
			g.Accumulate(skipGrads[i])
		}
		g = back(c.enc[i], g)
	}
}

// TestBlockNetworkMatchesStandaloneLayers: the network on fused blocks and
// owned buffers against the same wiring built from standalone layers — the
// prediction, every parameter gradient and every running statistic bit for
// bit, over two training steps and an Infer, at 1/2/4 workers.
func TestBlockNetworkMatchesStandaloneLayers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gemm/w%d", workers), func(t *testing.T) {
			cfg := Config{InChannels: 2, OutChannels: 1, BaseFilters: 4, Steps: 3,
				Kernel: 3, UpKernel: 2, Seed: 6, Workers: workers}
			u, ref := MustNew(cfg), newChainNet(cfg)
			ref.configure(workers)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 2; step++ {
				x := tensor.Randn(rng, 0, 1, 2, 2, 8, 8, 8)
				g := tensor.Randn(rng, 0, 1, 2, 1, 8, 8, 8)
				u.ZeroGrads()
				nn.ZeroGrads(ref.params())
				sameBits(t, "prediction", ref.forward(x, false).Data(), u.Forward(x).Data())
				ref.backward(g)
				u.Backward(g)
				for i, p := range ref.params() {
					if q := u.Params()[i]; q.Name != p.Name {
						t.Fatalf("parameter %d is %s, want %s", i, q.Name, p.Name)
					}
					sameBits(t, "gradient of "+p.Name, p.Grad.Data(), u.Params()[i].Grad.Data())
				}
			}
			aux := u.AuxState()
			for k, want := range ref.auxState() {
				for i, v := range want {
					if math.Float64bits(aux[k][i]) != math.Float64bits(v) {
						t.Fatalf("%s[%d] = %v, want %v", k, i, aux[k][i], v)
					}
				}
			}
			if len(aux) != len(ref.auxState()) {
				t.Fatalf("%d auxiliary entries, want %d", len(aux), len(ref.auxState()))
			}
			x := tensor.Randn(rng, 0, 1, 3, 2, 8, 8, 8)
			want := ref.forward(x, true)
			sameBits(t, "Infer", want.Data(), u.Infer(x).Data())
		})
	}
}

// TestOwnedBuffersLeaveCallerTensorsAlone: what crosses the UNet API stays
// the caller's. The input and the output gradient are bitwise what they were
// after a step, a held prediction is not overwritten by the next Forward,
// and a held Infer result not by a training step.
func TestOwnedBuffersLeaveCallerTensorsAlone(t *testing.T) {
	u := MustNew(inferTestConfig())
	rng := rand.New(rand.NewSource(21))
	x := tensor.Randn(rng, 0, 1, 2, 2, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 2, 1, 8, 8, 8)
	xKeep, gKeep := x.Clone(), g.Clone()

	pred := u.Forward(x)
	predKeep := pred.Clone()
	u.Backward(g)
	sameBits(t, "input after a step", xKeep.Data(), x.Data())
	sameBits(t, "gradOut after a step", gKeep.Data(), g.Data())

	next := u.Forward(tensor.Randn(rng, 0, 1, 2, 2, 8, 8, 8))
	u.Backward(g)
	sameBits(t, "held prediction after the next step", predKeep.Data(), pred.Data())
	if &next.Data()[0] == &pred.Data()[0] {
		t.Fatal("two Forwards returned the same prediction buffer")
	}
	held := u.Infer(x)
	heldKeep := held.Clone()
	u.Forward(x)
	u.Backward(g)
	sameBits(t, "held Infer result after a training step", heldKeep.Data(), held.Data())
}

// TestOwnedBuffersInterleavedTrainAndInfer: Infer on a model in the middle of
// a training step (the online controller scores models with Infer that a
// trainer also steps) gives the bits of doing the two apart, on both sides.
func TestOwnedBuffersInterleavedTrainAndInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.Randn(rng, 0, 1, 2, 2, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 2, 1, 8, 8, 8)
	probe := tensor.Randn(rng, 0, 1, 3, 2, 8, 8, 8)

	apart := MustNew(inferTestConfig())
	apart.Forward(x)
	apart.Backward(g)
	wantInfer := apart.Infer(probe)

	mixed := MustNew(inferTestConfig())
	mixed.Forward(x)
	gotInfer := mixed.Infer(probe)
	mixed.Backward(g)

	sameBits(t, "Infer between Forward and Backward", wantInfer.Data(), gotInfer.Data())
	for i, p := range apart.Params() {
		sameBits(t, "gradient of "+p.Name, p.Grad.Data(), mixed.Params()[i].Grad.Data())
	}
}

// TestOwnedBuffersAllocationGuard: with the collector ON, at any GOMAXPROCS
// and under the race detector, a steady-state training step of the
// benchmark's network allocates under 128 KiB of heap (its activations and
// gradients alone are 15 MB; the fresh prediction Forward returns is 32 KiB)
// and an Infer under 32 KiB: every activation and scratch buffer has an
// owner, none is garbage.
func TestOwnedBuffersAllocationGuard(t *testing.T) {
	cfg := PaperConfig()
	cfg.Steps = 3
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(23))
	x := tensor.Randn(rng, 0, 1, 2, 4, 16, 16, 16)
	g := tensor.Randn(rng, 0, 1, 2, 1, 16, 16, 16)

	perCall := func(calls int, fn func()) uint64 {
		fn()
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
	}
	step := perCall(50, func() {
		u.ZeroGrads()
		u.Forward(x)
		u.Backward(g)
	})
	if step >= 128<<10 {
		t.Errorf("steady-state training step allocates %d B of heap, want < 128 KiB", step)
	}
	infer := perCall(100, func() { u.Infer(x) })
	if infer >= 32<<10 {
		t.Errorf("steady-state Infer allocates %d B of heap, want < 32 KiB", infer)
	}
	t.Logf("heap per training step %d B, per Infer %d B", step, infer)
}

// TestChannelGlueWorkerCountInvariant: the skip gradient's add, on volumes
// that split into several chunks, is bit for bit the reference's
// split-then-Accumulate at any worker budget.
func TestChannelGlueWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	up := tensor.Randn(rng, 0, 1, 2, 4, 16, 16, 16)
	skip := tensor.Randn(rng, 0, 1, 2, 8, 16, 16, 16)
	grad := tensor.Randn(rng, 0, 1, 2, 8, 16, 16, 16)
	cat := concat(up, skip)
	_, gSkip := split(cat, 4)
	sum := grad.Clone()
	sum.Accumulate(gSkip)
	for _, workers := range []int{1, 2, 3} {
		g := grad.Clone()
		addChannels(g, cat, 4, workers)
		sameBits(t, fmt.Sprintf("addChannels at %d workers", workers), sum.Data(), g.Data())
	}
}
