// Package unet builds the paper's 3D U-Net: an analysis (encoder) and a
// synthesis (decoder) path with four resolution steps, 8·2^(s−1) filters at
// step s, two 3x3x3 convolutions per step each followed by batch
// normalization and ReLU, 2x2x2 max pooling between encoder steps, 2x2x2
// stride-2 transposed convolutions and skip concatenations in the decoder,
// and a 1x1x1 convolution + sigmoid head producing one output channel.
//
// The decoder wiring is under-specified in the paper (it reports 406,793
// total parameters); this implementation keeps the transposed convolution at
// the incoming channel width and reduces after the skip concatenation, which
// yields 409,657 parameters for the paper configuration — within 0.7% and
// with the identical filter progression. The builder is fully configurable
// so alternative wirings can be expressed.
//
// Forward always trains: batch normalization uses the batch statistics and
// updates the running estimates. Infer is the one evaluation forward —
// validation, serving, patches and the online controller score through it —
// and uses the running statistics. There is no mode to switch.
//
// # Wiring and ownership
//
// Each "convolution → batch normalization → ReLU" site is one nn.ConvBNReLU
// block (two per resolution step, a and b); pooling, the up-convolutions and
// the 1x1x1 head are the standalone nn layers. Every tensor that stays
// inside the network — block outputs and x̂, pooled activations,
// concatenations, logits, and every gradient flowing back between layers —
// lives in a buffer the block or the network owns (tensor.Owned,
// nn.HaloBuffer): laid out by the first step, grown to the largest batch
// seen, resliced afterwards and released by DropCaches.
//
// Forward and Infer lay their activations out the same way, each in buffers
// of its own (Infer may run between a Forward and its Backward): every
// activation a 3³ convolution reads is stored, by the layer that produces
// it, inside the zero border that convolution reads in place (nn.Haloed,
// nn.HaloBuffer), so only the network's input is copied into one. Each
// encoder step's output goes straight into the skip half of its decoder
// step's concatenation, where the pooling reads it and the decoder finds it,
// and the up-convolution writes the other half, so the skip has no buffer
// of its own. Outputs that feed an up-convolution or the 1x1x1 head are
// plain. Forward keeps one buffer per activation, since Backward reads them
// all; Infer one per live role — a ping-pong pair between layers, each
// concatenation and the prediction — not one per site. In Backward each
// block stores its dL/dz inside the zero border its input gradient's
// convolution reads in place, in one buffer the network owns and every
// block shares, since they run one at a time. The layers' scratch comes
// from one tensor.Workspace the network owns, shared the same way, and
// given back before each call returns. A steady-state training step or
// Infer therefore allocates no activation, gradient or scratch, and leaves
// next to no garbage for the collector (TestOwnedBuffersAllocationGuard).
//
// Forward, Infer and Backward only read the tensor they are given. Forward
// returns a fresh prediction the caller may keep indefinitely. Infer returns
// the network's own prediction buffer, valid until the next Infer; a caller
// that needs it longer copies it. Nothing else the network computes is
// reachable from outside. A UNet is not safe for concurrent use.
package unet

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config describes a U-Net instance.
type Config struct {
	InChannels  int // input modalities (paper: 4 — FLAIR, T1w, T1gd, T2w)
	OutChannels int // output labels (paper: 1, whole tumour vs background)
	BaseFilters int // filters at the first resolution step (paper: 8)
	Steps       int // resolution steps in each path (paper: 4)
	Kernel      int // body convolution kernel (paper: 3)
	UpKernel    int // transposed-convolution kernel == stride (paper: 2)
	Seed        int64

	// Workers is the per-network worker budget for the parallel compute
	// kernels; 0 means the parallel package default (all cores). Training
	// layers that run several networks concurrently (mirrored replicas,
	// experiment-parallel trials) lower it so the machine is divided, not
	// oversubscribed.
	Workers int
}

// PaperConfig returns the configuration used in the paper's benchmark.
func PaperConfig() Config {
	return Config{
		InChannels:  4,
		OutChannels: 1,
		BaseFilters: 8,
		Steps:       4,
		Kernel:      3,
		UpKernel:    2,
		Seed:        1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.InChannels <= 0:
		return fmt.Errorf("unet: InChannels must be positive, got %d", c.InChannels)
	case c.OutChannels <= 0:
		return fmt.Errorf("unet: OutChannels must be positive, got %d", c.OutChannels)
	case c.BaseFilters <= 0:
		return fmt.Errorf("unet: BaseFilters must be positive, got %d", c.BaseFilters)
	case c.Steps < 2:
		return fmt.Errorf("unet: Steps must be at least 2, got %d", c.Steps)
	case c.Kernel%2 == 0 || c.Kernel <= 0:
		return fmt.Errorf("unet: Kernel must be odd and positive, got %d", c.Kernel)
	case c.UpKernel < 2:
		return fmt.Errorf("unet: UpKernel must be at least 2, got %d", c.UpKernel)
	}
	return nil
}

// Filters returns the filter count at resolution step s (1-based).
func (c Config) Filters(s int) int { return c.BaseFilters << (s - 1) }

// MinVolume returns the minimum spatial extent divisor: inputs must have
// every spatial dimension divisible by UpKernel^(Steps-1).
func (c Config) MinVolume() int {
	v := 1
	for i := 1; i < c.Steps; i++ {
		v *= c.UpKernel
	}
	return v
}

// encStep is one encoder resolution step: two body blocks and, above the
// deepest step, the pooling that feeds the next one. The tensors between
// layers live in buffers the step, its blocks or its decoder step own.
type encStep struct {
	a, b *nn.ConvBNReLU
	pool *nn.MaxPool3D // nil at the deepest step

	pooled   nn.HaloBuffer // pool output, inside the halo the next step's a reads
	poolGrad tensor.Owned  // gradient w.r.t. b's output: un-pooled, plus the skip's
}

// decStep is one decoder resolution step: the up-convolution, the skip
// concatenation — the up-convolution's output, then the skip — and two body
// blocks.
type decStep struct {
	up   *nn.ConvTranspose3D
	a, b *nn.ConvBNReLU

	upChannels int // channels arriving from below

	cat      nn.HaloBuffer // [up, skip] concatenation, inside the halo a reads
	upGrad   tensor.Owned  // gradient w.r.t. the step's input
	inferCat nn.HaloBuffer // Infer's concatenation

	catGrad *tensor.Tensor // a's input gradient from the last Backward; the encoder reads its skip half
}

// UNet is the full network.
type UNet struct {
	Cfg  Config
	enc  []*encStep
	dec  []*decStep // dec[i] corresponds to resolution step Steps-1-i
	head *nn.Conv3D
	act  *nn.Sigmoid

	headOut  tensor.Owned // logits
	actGrad  tensor.Owned // gradient w.r.t. the logits
	headGrad tensor.Owned // gradient w.r.t. the last decoder block's output

	ping, pong nn.HaloBuffer // Infer's activations between layers
	pred       tensor.Owned  // Infer's result

	dz nn.HaloBuffer // every block's dL/dz, inside the halo its input gradient reads

	ws tensor.Workspace // every layer's scratch

	params []*nn.Param

	// Per-group parameter slices in gradient completion order (head, then
	// decoder steps deep→shallow, then encoder steps deep→shallow), built
	// once at construction for the grad sink.
	headParams []*nn.Param
	decParams  [][]*nn.Param
	encParams  [][]*nn.Param
	gradSink   func(group []*nn.Param) // nil = no streaming
}

// New builds a U-Net from cfg.
func New(cfg Config) (*UNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &UNet{Cfg: cfg}

	in := cfg.InChannels
	for s := 1; s <= cfg.Steps; s++ {
		f := cfg.Filters(s)
		e := &encStep{
			a: nn.NewConvBNReLU(fmt.Sprintf("enc%d.a", s), in, f, cfg.Kernel, rng),
			b: nn.NewConvBNReLU(fmt.Sprintf("enc%d.b", s), f, f, cfg.Kernel, rng),
		}
		if s < cfg.Steps {
			e.pool = nn.NewMaxPool3D(cfg.UpKernel)
		}
		u.enc = append(u.enc, e)
		in = f
	}

	for s := cfg.Steps - 1; s >= 1; s-- {
		fBelow := cfg.Filters(s + 1)
		f := cfg.Filters(s)
		d := &decStep{
			up:         nn.NewConvTranspose3D(fmt.Sprintf("dec%d.up", s), fBelow, fBelow, cfg.UpKernel, rng),
			a:          nn.NewConvBNReLU(fmt.Sprintf("dec%d.a", s), fBelow+f, f, cfg.Kernel, rng),
			b:          nn.NewConvBNReLU(fmt.Sprintf("dec%d.b", s), f, f, cfg.Kernel, rng),
			upChannels: fBelow,
		}
		u.dec = append(u.dec, d)
	}

	u.head = nn.NewConv3D("head", cfg.BaseFilters, cfg.OutChannels, 1, rng)
	u.act = nn.NewSigmoid()
	u.SetWorkers(cfg.Workers)
	for _, b := range u.blocks() {
		b.SetWorkspace(&u.ws)
		b.SetGradHalo(&u.dz)
	}
	for _, d := range u.dec {
		d.up.SetWorkspace(&u.ws)
	}
	u.head.SetWorkspace(&u.ws)

	for _, e := range u.enc {
		g := append(e.a.Params(), e.b.Params()...)
		u.encParams = append(u.encParams, g)
		u.params = append(u.params, g...)
	}
	for _, d := range u.dec {
		g := append(d.up.Params(), d.a.Params()...)
		g = append(g, d.b.Params()...)
		u.decParams = append(u.decParams, g)
		u.params = append(u.params, g...)
	}
	u.headParams = u.head.Params()
	u.params = append(u.params, u.headParams...)
	return u, nil
}

// SetGradSink installs fn, which Backward then calls once per layer group —
// head, each decoder step (deepest first), each encoder step (deepest
// first) — at the moment that group's parameter gradients are final. The
// groups partition Params() and the call order is a pure function of the
// architecture, so every data-parallel rank streams identical buckets in
// identical order. fn runs on the goroutine calling Backward; nil restores
// non-streaming backward. After a sink call Backward never touches that
// group's gradients again, so fn may hand them to a concurrent reducer.
func (u *UNet) SetGradSink(fn func(group []*nn.Param)) { u.gradSink = fn }

// MustNew builds a U-Net and panics on configuration errors; convenient for
// examples and benchmarks using known-good configs.
func MustNew(cfg Config) *UNet {
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Params returns all trainable parameters.
func (u *UNet) Params() []*nn.Param { return u.params }

// ParamCount returns the total number of trainable scalar parameters.
func (u *UNet) ParamCount() int { return nn.ParamCount(u.params) }

// blocks lists the body blocks in wiring order.
func (u *UNet) blocks() []*nn.ConvBNReLU {
	var bs []*nn.ConvBNReLU
	for _, e := range u.enc {
		bs = append(bs, e.a, e.b)
	}
	for _, d := range u.dec {
		bs = append(bs, d.a, d.b)
	}
	return bs
}

// SetWorkers sets the worker budget on every compute layer; 0 restores the
// parallel package default.
func (u *UNet) SetWorkers(workers int) {
	u.Cfg.Workers = workers
	for _, b := range u.blocks() {
		b.SetWorkers(workers)
	}
	for _, e := range u.enc {
		if e.pool != nil {
			e.pool.SetWorkers(workers)
		}
	}
	for _, d := range u.dec {
		d.up.SetWorkers(workers)
	}
	u.head.SetWorkers(workers)
	u.act.SetWorkers(workers)
}

// ZeroGrads clears all parameter gradients.
func (u *UNet) ZeroGrads() { nn.ZeroGrads(u.params) }

// DropCaches releases everything the network retains between steps: every
// buffer it and its blocks own — activations, x̂, input and skip gradients,
// Infer's buffers, the scratch workspace's backing — plus the layers'
// references to their last input and output and the pooling argmax
// records. Parameters, their gradients and the running statistics stay.
// The next Forward lays the buffers out again and computes the same bits
// (TestDropCachesBitNeutralAcrossSteps), and an Infer between the two is
// unchanged too, so a caller may release the training buffers before a
// full-volume evaluation. It is safe between an optimizer step and the next
// Forward, not between a Forward and its Backward.
func (u *UNet) DropCaches() {
	for _, b := range u.blocks() {
		b.DropCaches()
	}
	for _, e := range u.enc {
		if e.pool != nil {
			e.pool.DropCaches()
		}
		e.pooled.Release()
		e.poolGrad.Release()
	}
	for _, d := range u.dec {
		d.up.DropCaches()
		d.cat.Release()
		d.upGrad.Release()
		d.inferCat.Release()
		d.catGrad = nil
	}
	u.head.DropCaches()
	u.act.DropCaches()
	u.headOut.Release()
	u.actGrad.Release()
	u.headGrad.Release()
	u.ping.Release()
	u.pong.Release()
	u.pred.Release()
	u.dz.Release()
	u.ws = tensor.Workspace{}
}

// AuxState merges the batch-norm running statistics of every normalization
// layer — the trained non-parameter state a checkpoint must capture for
// Infer to reproduce. The slices alias the live state.
func (u *UNet) AuxState() map[string][]float64 {
	out := map[string][]float64{}
	for _, b := range u.blocks() {
		for k, v := range b.AuxState() {
			out[k] = v
		}
	}
	return out
}

// checkInput validates an [N, C, D, H, W] input against the configuration.
func (u *UNet) checkInput(op string, x *tensor.Tensor) {
	s := x.Shape()
	if len(s) != 5 {
		panic(fmt.Sprintf("unet: %s expects [N,C,D,H,W], got %v", op, s))
	}
	mv := u.Cfg.MinVolume()
	for _, d := range s[2:] {
		if d%mv != 0 {
			panic(fmt.Sprintf("unet: spatial dims %v must be divisible by %d", s[2:], mv))
		}
	}
}

// Forward is the training forward: it computes per-voxel probabilities for
// x ([N, InC, D, H, W]) under the batch statistics, updates the running
// estimates and keeps what Backward needs. Spatial dimensions must be
// divisible by MinVolume(). x is only read, and must stay unchanged until
// Backward has run; the returned prediction is a fresh tensor the caller
// owns.
//
// The activations are laid out as Infer lays out its own: each is stored,
// by the layer that produces it, inside the zero border the 3³ convolution
// that reads it reads in place (nn.Haloed), so only x is copied into one. An
// encoder step's second block stores its output into the skip half of its
// decoder step's concatenation, where the pooling reads it and the decoder
// finds it; the up-convolution stores its output into the other half.
// Outputs that feed an up-convolution or the 1×1×1 head are plain. Each
// convolution keeps its input where it lies for its kernel gradient.
func (u *UNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	u.checkInput("Forward", x)
	k, p, workers := u.Cfg.UpKernel, u.Cfg.Kernel/2, u.Cfg.Workers
	s := x.Shape()
	n, d, h, w := s[0], s[2], s[3], s[4]
	in := nn.Whole(x)
	var out nn.Haloed // the deepest or the last decoder output, plain
	for i, e := range u.enc {
		f := e.a.Conv.OutChannels
		t := e.a.Output(n, d, h, w, p)
		e.a.ForwardHaloed(in, t)
		if e.pool == nil {
			out = e.b.Output(n, d, h, w, 0)
			e.b.ForwardHaloed(t, out)
			break
		}
		dc := u.dec[len(u.dec)-1-i]
		skip := dc.cat.Shaped(n, dc.upChannels+f, d, h, w, p, workers).Channels(dc.upChannels, f)
		e.b.ForwardHaloed(t, skip)
		d, h, w = d/k, h/k, w/k
		in = e.pooled.Shaped(n, f, d, h, w, p, workers)
		e.pool.ForwardHaloed(skip, in)
	}
	for _, dc := range u.dec {
		d, h, w = d*k, h*k, w*k
		cat := dc.cat.Layout()
		dc.up.ForwardHaloed(out.Buf, cat.Channels(0, dc.upChannels))
		t := dc.a.Output(n, d, h, w, p)
		dc.a.ForwardHaloed(cat, t)
		out = dc.b.Output(n, d, h, w, 0)
		dc.b.ForwardHaloed(t, out)
	}
	return u.act.Forward(u.head.ForwardInto(out.Buf, like(&u.headOut, out.Buf, u.Cfg.OutChannels, 1, 1)))
}

// Infer computes per-voxel probabilities under the running statistics — bit
// for bit the standalone layers' Infers chained, whatever a sample's batch
// neighbours — forward-only, in Infer's own buffers: it touches nothing
// Backward reads, so it may be interleaved with training steps on the same
// model (between a Forward and its Backward too) without disturbing either.
//
// Every activation a body convolution reads is stored, by the layer that
// produces it, inside the zero border that convolution reads in place
// (nn.Haloed), so only x is copied into one. An encoder step's second
// block stores its output into the skip half of its decoder step's
// concatenation, where the pooling reads it and the decoder finds it. A
// buffer's borders are zeroed where a layout of other extents may have
// written over them (nn.HaloBuffer): the concatenations keep theirs while
// the input's extents repeat; the ping-pong pair, whose extents change
// from step to step, clears what the steps between wrote.
//
// x is only read. The result is the network's own buffer, valid until the
// next Infer.
func (u *UNet) Infer(x *tensor.Tensor) *tensor.Tensor {
	u.checkInput("Infer", x)
	k, p, workers := u.Cfg.UpKernel, u.Cfg.Kernel/2, u.Cfg.Workers
	s := x.Shape()
	n, d, h, w := s[0], s[2], s[3], s[4]
	in := nn.Whole(x)
	for i, e := range u.enc {
		f := e.a.Conv.OutChannels
		t := u.pong.Shaped(n, f, d, h, w, p, workers)
		e.a.InferHaloed(in, t)
		if e.pool == nil {
			in = u.ping.Shaped(n, f, d, h, w, 0, workers)
			e.b.InferHaloed(t, in)
			break
		}
		dc := u.dec[len(u.dec)-1-i]
		skip := dc.inferCat.Shaped(n, dc.upChannels+f, d, h, w, p, workers).Channels(dc.upChannels, f)
		e.b.InferHaloed(t, skip)
		d, h, w = d/k, h/k, w/k
		in = u.ping.Shaped(n, f, d, h, w, p, workers)
		e.pool.InferHaloed(skip, in)
	}
	for _, dc := range u.dec {
		d, h, w = d*k, h*k, w*k
		cat := dc.inferCat.Layout()
		dc.up.InferHaloed(in.Buf, cat.Channels(0, dc.upChannels))
		f := dc.a.Conv.OutChannels
		t := u.pong.Shaped(n, f, d, h, w, p, workers)
		dc.a.InferHaloed(cat, t)
		in = u.ping.Shaped(n, f, d, h, w, 0, workers)
		dc.b.InferHaloed(t, in)
	}
	logits := u.head.InferInto(in.Buf, u.pong.Shaped(n, u.Cfg.OutChannels, d, h, w, 0, workers).Buf)
	return u.act.InferInto(logits, u.pred.Shaped(logits.Shape()...))
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients. gradOut is only read. The gradient w.r.t. the
// network's input is not computed: no caller has a use for it.
func (u *UNet) Backward(gradOut *tensor.Tensor) {
	k := u.Cfg.UpKernel
	g := u.act.BackwardInto(gradOut, u.actGrad.Shaped(gradOut.Shape()...))
	g = u.head.BackwardInto(g, like(&u.headGrad, g, u.Cfg.BaseFilters, 1, 1))
	if u.gradSink != nil {
		u.gradSink(u.headParams)
	}

	for i := len(u.dec) - 1; i >= 0; i-- {
		d := u.dec[i]
		d.catGrad = d.a.Backward(d.b.Backward(g))
		g = d.up.BackwardInto(d.catGrad, like(&d.upGrad, d.catGrad, d.upChannels, 1, k))
		if u.gradSink != nil {
			u.gradSink(u.decParams[i])
		}
	}

	for i := len(u.enc) - 1; i >= 0; i-- {
		e := u.enc[i]
		if e.pool != nil { // the decoder step at this resolution took the skip
			g = e.pool.BackwardInto(g, like(&e.poolGrad, g, g.Dim(1), k, 1))
			d := u.dec[len(u.dec)-1-i]
			addChannels(g, d.catGrad, d.upChannels, u.Cfg.Workers)
		}
		g = e.b.Backward(g)
		if i > 0 {
			g = e.a.Backward(g)
		} else {
			e.a.BackwardParams(g)
		}
		if u.gradSink != nil {
			u.gradSink(u.encParams[i])
		}
	}
}

// like lays o out as [N, c, D, H, W] with x's N and x's extent scaled by
// num/den.
func like(o *tensor.Owned, x *tensor.Tensor, c, num, den int) *tensor.Tensor {
	s := x.Shape()
	return o.Shaped(s[0], c, s[2]*num/den, s[3]*num/den, s[4]*num/den)
}

// channelGrain is how many floats one chunk of addChannels moves, in whole
// channel volumes.
const channelGrain = 16384

// addChannels adds channels [c0, c0+C) of src onto dst ([N, C, …]), element
// by element, on a worker budget of workers: the bits of dst.Accumulate on a
// copy of the window.
func addChannels(dst, src *tensor.Tensor, c0, workers int) {
	n, c := dst.Dim(0), dst.Dim(1)
	vol := dst.Size() / (n * c)
	dd, sd, sc := dst.Data(), src.Data(), src.Dim(1)
	parallel.ForWorkers(workers, n*c, max(1, channelGrain/vol), func(_, lo, hi int) {
		for item := lo; item < hi; item++ {
			ni, ci := item/c, item%c
			d := dd[item*vol:][:vol]
			for j, v := range sd[(ni*sc+c0+ci)*vol:][:vol] {
				d[j] += v
			}
		}
	})
}
