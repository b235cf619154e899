package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/dist"
	"repro/internal/gemm"
	"repro/internal/loss"
	"repro/internal/mirrored"
	"repro/internal/msd"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/unet"
	"repro/internal/volume"
)

// The layer probes: each times one layer through its public functions, at
// bench_net's shapes, on inputs drawn from the run seed. They run only in a
// traced run; nothing here feeds an end-to-end metric.

// layerSite is one layer instance of the U-Net: what it is, its channel
// counts and the spatial edge of its input.
type layerSite struct {
	kind        string // conv_k3, up_k2, head_k1, bn, relu, pool
	inC, outC   int
	kernel, ext int
}

// netSites lists the layers one forward pass of the network visits, in
// wiring order (the order unet.New builds them in).
func netSites(c unet.Config, dim int) []layerSite {
	var sites []layerSite
	body := func(in, out, ext int) {
		sites = append(sites,
			layerSite{"conv_k3", in, out, c.Kernel, ext},
			layerSite{"bn", out, out, 0, ext},
			layerSite{"relu", out, out, 0, ext})
	}
	in, ext := c.InChannels, dim
	for s := 1; s <= c.Steps; s++ {
		f := c.Filters(s)
		body(in, f, ext)
		body(f, f, ext)
		if s < c.Steps {
			sites = append(sites, layerSite{"pool", f, f, c.UpKernel, ext})
			ext /= c.UpKernel
		}
		in = f
	}
	for s := c.Steps - 1; s >= 1; s-- {
		below, f := c.Filters(s+1), c.Filters(s)
		sites = append(sites, layerSite{"up_k2", below, below, c.UpKernel, ext})
		ext *= c.UpKernel
		body(below+f, f, ext)
		body(f, f, ext)
	}
	return append(sites, layerSite{"head_k1", c.BaseFilters, c.OutChannels, 1, ext})
}

// replayLayer is what every probed nn layer offers.
type replayLayer interface {
	nn.Layer
	Infer(x *tensor.Tensor) *tensor.Tensor
	SetWorkers(workers int)
}

func (s layerSite) build(rng *rand.Rand) replayLayer {
	switch s.kind {
	case "conv_k3", "head_k1":
		return nn.NewConv3D("probe", s.inC, s.outC, s.kernel, rng)
	case "up_k2":
		return nn.NewConvTranspose3D("probe", s.inC, s.outC, s.kernel, rng)
	case "bn":
		return nn.NewBatchNorm("probe", s.inC)
	case "relu":
		return nn.NewReLU()
	}
	return nn.NewMaxPool3D(s.kernel)
}

// replaySet is every site of the network built as a standalone layer with
// an input and an output gradient of the right shape.
type replaySet struct {
	sites  []layerSite
	layers []replayLayer
	xs, gs []*tensor.Tensor
}

func newReplaySet(p params) *replaySet {
	rng := rand.New(rand.NewSource(p.sub("replay")))
	rs := &replaySet{sites: netSites(p.net(), p.dim)}
	for _, s := range rs.sites {
		l := s.build(rng)
		x := tensor.Randn(rng, 0, 1, p.batch, s.inC, s.ext, s.ext, s.ext)
		rs.layers = append(rs.layers, l)
		rs.xs = append(rs.xs, x)
		rs.gs = append(rs.gs, tensor.Randn(rng, 0, 1, l.Forward(x).Shape()...))
	}
	return rs
}

// pass runs every site once — forward, backward and the forward-only Infer
// path — at the given worker budget and returns the per-kind sums in ms: one
// training step's (or one inference's) worth of each kind of layer.
func (rs *replaySet) pass(workers int) map[string]float64 {
	sums := map[string]float64{}
	for i, s := range rs.sites {
		l := rs.layers[i]
		l.SetWorkers(workers)
		t0 := time.Now()
		l.Forward(rs.xs[i])
		t1 := time.Now()
		l.Backward(rs.gs[i])
		t2 := time.Now()
		tensor.Recycle(l.Infer(rs.xs[i]))
		sums[s.kind+"_fwd"] += ms(t1.Sub(t0))
		sums[s.kind+"_bwd"] += ms(t2.Sub(t1))
		sums[s.kind+"_infer"] += ms(time.Since(t2))
	}
	return sums
}

func sumSuffix(m map[string]float64, suffixes ...string) float64 {
	var t float64
	for k, v := range m {
		for _, s := range suffixes {
			if strings.HasSuffix(k, s) {
				t += v
			}
		}
	}
	return t
}

// probeNet covers gemm, nn and unet: the GEMM kernel against its own peak on
// the shapes the network's convolutions lower to, the standalone layer
// replay, and the whole network's forward, backward and Infer.
func probeNet(p params) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(p.sub("gemm")))
	randSlice := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
		return s
	}

	n := p.gemmN
	a, b, c := randSlice(n*n), randSlice(n*n), make([]float32, n*n)
	peak := 2 * float64(n) * float64(n) * float64(n) / 1e6 /
		timeMs(p.probeReps, func() { gemm.Gemm(false, false, n, n, n, a, n, b, n, false, c, n, 1) })
	// Forward lowering of each convolution site, per sample: a stride-1 conv
	// is [outC × inC·k³] · [inC·k³ × ext³]; a transposed conv is
	// [outC·k³ × inC] · [inC × ext³].
	var flops float64
	convMs := map[int]float64{}
	for _, s := range netSites(p.net(), p.dim) {
		m, k := s.outC, s.inC*s.kernel*s.kernel*s.kernel
		switch s.kind {
		case "conv_k3", "head_k1":
		case "up_k2":
			m, k = s.outC*s.kernel*s.kernel*s.kernel, s.inC
		default:
			continue
		}
		cols := s.ext * s.ext * s.ext
		a, b, c := randSlice(m*k), randSlice(k*cols), make([]float32, m*cols)
		flops += 2 * float64(m) * float64(k) * float64(cols)
		for _, w := range []int{1, 0} {
			convMs[w] += timeMs(p.probeReps, func() { gemm.Gemm(false, false, m, cols, k, a, k, b, cols, false, c, cols, w) })
		}
	}
	out.metrics["gemm.peak_gflops"] = peak
	out.metrics["gemm.conv_gflops"] = flops / 1e6 / convMs[1]
	out.metrics["gemm.conv_frac_peak"] = flops / 1e6 / convMs[1] / peak
	out.metrics["gemm.scale_w2"] = convMs[1] / convMs[0]

	// The layer replay and the whole network are timed in the same
	// repetition, at all cores and at one worker, and every ratio is taken
	// within a repetition before the median: the box's speed drifts over
	// seconds, and a ratio of two medians taken seconds apart drifts with it.
	rs := newReplaySet(p)
	model, err := unet.New(p.net())
	if err != nil {
		return nil, err
	}
	x := tensor.Randn(rng, 0, 1, p.batch, model.Cfg.InChannels, p.dim, p.dim, p.dim)
	grad := tensor.Randn(rng, 0, 1, model.Forward(x).Shape()...)
	step := func(workers int) (fwd, bwd float64) {
		model.SetWorkers(workers)
		model.ZeroGrads()
		t0 := time.Now()
		model.Forward(x)
		t1 := time.Now()
		model.Backward(grad)
		return ms(t1.Sub(t0)), ms(time.Since(t1))
	}
	series := map[string][]float64{}
	for rep := 0; rep <= p.probeReps; rep++ {
		all, one := rs.pass(0), rs.pass(1)
		fwd, bwd := step(0)
		f1, b1 := step(1)
		if rep == 0 {
			continue // warm-up
		}
		for k, v := range all {
			series["nn."+k+"_ms"] = append(series["nn."+k+"_ms"], v)
		}
		replayed := sumSuffix(all, "_fwd", "_bwd")
		series["nn.replay_scale_w2"] = append(series["nn.replay_scale_w2"], sumSuffix(one, "_fwd", "_bwd")/replayed)
		series["unet.fwd_ms"] = append(series["unet.fwd_ms"], fwd)
		series["unet.bwd_ms"] = append(series["unet.bwd_ms"], bwd)
		series["unet.scale_w2"] = append(series["unet.scale_w2"], (f1+b1)/(fwd+bwd))
		series["unet.glue_share"] = append(series["unet.glue_share"], 1-replayed/(fwd+bwd))
	}
	for name, vals := range series { // incl. Infer of bn, relu and pool, which spec.go does not list and main drops
		out.metrics[name] = median(vals)
	}
	model.DropCaches()
	x4 := tensor.Randn(rng, 0, 1, 4, model.Cfg.InChannels, p.dim, p.dim, p.dim)
	var infer4, gain []float64
	for rep := 0; rep <= p.probeReps; rep++ {
		t0 := time.Now()
		tensor.Recycle(model.Infer(x4))
		t1 := time.Now()
		for i := 0; i < 4; i++ {
			tensor.Recycle(model.Infer(x4.Slice(i, i+1)))
		}
		if four, ones := ms(t1.Sub(t0)), ms(time.Since(t1)); rep > 0 { // rep 0 is the warm-up
			infer4, gain = append(infer4, four), append(gain, ones/four)
		}
	}
	out.metrics["unet.infer_ms"] = median(infer4)
	out.metrics["unet.infer_batch_gain"] = median(gain)

	pred, mask := tensor.Uniform(rng, 0.05, 0.95, p.batch, 1, p.dim, p.dim, p.dim), tensor.New(p.batch, 1, p.dim, p.dim, p.dim)
	for i, d := 0, mask.Data(); i < len(d); i += 3 {
		d[i] = 1
	}
	dice, err := loss.ByName("dice")
	if err != nil {
		return nil, err
	}
	out.metrics["loss.dice_ms"] = timeMs(p.probeReps, func() { dice.Eval(pred, mask) })
	adam, err := optim.ByName("adam", 1e-3)
	if err != nil {
		return nil, err
	}
	out.metrics["optim.adam_ms"] = timeMs(p.probeReps, func() { adam.Step(model.Params()) })
	return out, nil
}

// formPair wires two ranks over loopback TCP in this process.
func formPair(codecName string) (tops [2]*allreduce.Topology, closeAll func(), err error) {
	codec, err := allreduce.CodecByName(codecName)
	if err != nil {
		return tops, nil, err
	}
	var lns [2]net.Listener
	members := make([]string, 2)
	closeAll = func() {
		for r := range lns {
			if tops[r] != nil {
				tops[r].Close()
			}
			if lns[r] != nil {
				lns[r].Close()
			}
		}
	}
	for r := range lns {
		if lns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeAll()
			return tops, nil, err
		}
		members[r] = lns[r].Addr().String()
	}
	var errs [2]error
	bothRanks(func(r int) {
		tops[r], errs[r] = allreduce.FormTopology(lns[r], members, r, 0,
			allreduce.NetConfig{Gen: 1, OpTimeout: 30 * time.Second, Codec: codec})
	})
	for _, e := range errs {
		if e != nil {
			closeAll()
			return tops, nil, e
		}
	}
	return tops, closeAll, nil
}

// bothRanks runs fn for rank 0 and rank 1 concurrently and waits for both.
func bothRanks(fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

// The process-wide wire counters the allreduce package maintains, fetched by
// name (registration is get-or-create) and read as deltas around a probe.
var (
	wireTxBytes  = telemetry.Default().Counter("allreduce_tx_bytes_total", "")
	wireTxFrames = telemetry.Default().Counter("allreduce_tx_frames_total", "")
	wirePayload  = telemetry.Default().CounterVec("allreduce_payload_bytes_total", "", "codec", "fp16")
	wireRaw      = telemetry.Default().CounterVec("allreduce_payload_raw_bytes_total", "", "codec", "fp16")
)

// probeAllreduce times one gradient-sized average over two ranks: the
// in-memory ring, and the TCP topology under each wire codec.
func probeAllreduce(p params) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(p.sub("allreduce")))
	model, err := unet.New(p.net())
	if err != nil {
		return nil, err
	}
	n := model.ParamCount()
	bufs := [][]float32{make([]float32, n), make([]float32, n)}
	for _, b := range bufs {
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
	}
	var rerr error
	out.metrics["allreduce.ring_mem_ms"] = timeMs(2*p.probeReps, func() {
		if err := allreduce.RingAverage(bufs); err != nil {
			rerr = err
		}
	})
	for _, codec := range []string{"none", "fp16", "int8"} {
		tops, closeAll, err := formPair(codec)
		if err != nil {
			return nil, err
		}
		payload0, raw0 := wirePayload.With("fp16").Value(), wireRaw.With("fp16").Value()
		out.metrics["allreduce.tcp_"+codec+"_ms"] = timeMs(2*p.probeReps, func() {
			var errs [2]error
			bothRanks(func(r int) { errs[r] = tops[r].AllReduceAverage(bufs[r]) })
			for _, e := range errs {
				if e != nil {
					rerr = e
				}
			}
		})
		closeAll()
		if codec == "fp16" {
			out.metrics["allreduce.wire_ratio_fp16"] = float64(wirePayload.With("fp16").Value()-payload0) /
				float64(wireRaw.With("fp16").Value()-raw0)
		}
	}
	return out, rerr
}

// probeMirrored times the in-process data-parallel step (2 replicas, global
// batch 2·batch) and compares its throughput with twice a one-worker Single.
func probeMirrored(p params, rec *recorder) (*outcome, error) {
	out := newOutcome()
	steps := p.probeReps + 1
	data, err := phantoms(p.sub("mirrored-data"), steps*2*p.batch, p.dim, p.dim, p.dim, p.net().MinVolume())
	if err != nil {
		return nil, err
	}
	tr, err := mirrored.New(mirrored.Config{
		Replicas: 2, Net: p.net(), Loss: "dice", Optimizer: "adam", BaseLR: 1e-3, ScaleLR: true,
	})
	if err != nil {
		return nil, err
	}
	const label = "probe.mirrored"
	root := rec.begin(label, 0, label)
	probe := &stepProbe{rec: rec, parent: root}
	err = fitProbe(tr, data, nil, 1, 2*p.batch, p.sub("shuffle"), probe)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	out.check(tr.InSync(), "mirrored replicas diverged")

	single, err := train.NewSingle(train.SingleConfig{Net: p.net(), Loss: "dice", Optimizer: "adam", LR: 1e-3, Workers: 1})
	if err != nil {
		return nil, err
	}
	alone := &stepProbe{}
	if err := fitProbe(single, data[:steps*p.batch], nil, 1, p.batch, p.sub("shuffle"), alone); err != nil {
		return nil, err
	}

	tot := rec.totals(label)
	stepMs := median(probe.steps[1:])
	out.metrics["mirrored.step_ms"] = stepMs
	out.metrics["mirrored.allreduce_ms"] = median(probe.phases["allreduce"][1:])
	out.metrics["mirrored.optim_ms"] = median(probe.phases["optim"][1:])
	out.metrics["mirrored.sync_overhead_share"] = share(tot["step"].own, tot["step"].total)
	// 2·batch samples per mirrored step against 2 × (batch per one-worker step).
	out.metrics["mirrored.dp_efficiency"] = median(alone.steps[1:]) / stepMs
	return out, nil
}

// probeDist times the wire data-parallel step: two ranks in this process
// over loopback TCP, each a dist.NetStrategy under its own train.Session,
// once per codec. Loopback wall-clock on a shared box is noisy, which is why
// this is a layer probe and not a workload; the byte and frame counts are
// exact.
func probeDist(p params, rec *recorder, tmp string) (*outcome, error) {
	out := newOutcome()
	steps := p.distSteps + 1
	data, err := phantoms(p.sub("dist-data"), steps*2*p.batch, p.dim, p.dim, p.dim, p.net().MinVolume())
	if err != nil {
		return nil, err
	}
	netCfg := p.net()
	netCfg.Workers = 1 // two ranks share the machine, as two replicas do
	for _, codec := range []string{"none", "fp16"} {
		tops, closeAll, err := formPair(codec)
		if err != nil {
			return nil, err
		}
		label := "probe.dist." + codec
		root := rec.begin(label, 0, label)
		var strats [2]*dist.NetStrategy
		var probes [2]*stepProbe
		var errs [2]error
		bytes0, frames0 := wireTxBytes.Value(), wireTxFrames.Value()
		bothRanks(func(r int) {
			if strats[r], errs[r] = dist.NewNetStrategy(tops[r], netCfg, "dice", "adam", 1e-3, true); errs[r] != nil {
				return
			}
			if codec != "none" {
				// dist workers bucket and overlap lossy codecs by default
				// (64 KiB buckets); the probe measures that path.
				strats[r].SetBucketBytes(64 << 10)
			}
			probes[r] = &stepProbe{}
			if r == 0 {
				probes[r] = &stepProbe{rec: rec, parent: root}
			}
			errs[r] = fitProbe(strats[r], data, nil, 1, 2*p.batch, p.sub("shuffle"), probes[r])
		})
		rec.end(root)
		closeAll()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		out.check(dist.ParamHash(strats[0].Model()) == dist.ParamHash(strats[1].Model()), "dist ranks diverged under codec %s", codec)
		// Both ranks transmit into the same process-wide counters.
		perRankStep := float64(2 * steps)
		out.metrics["dist.step_ms_"+codec] = median(probes[0].steps[1:])
		out.metrics["dist.bytes_per_step_"+codec] = float64(wireTxBytes.Value()-bytes0) / perRankStep
		if codec == "none" {
			out.metrics["dist.frames_per_step"] = float64(wireTxFrames.Value()-frames0) / perRankStep
		} else {
			var wait, total float64
			for i, w := range probes[0].phases["comm_wait"] {
				wait, total = wait+w, total+probes[0].steps[i]
			}
			out.metrics["dist.comm_wait_share_"+codec] = wait / total
		}
	}

	// Formation: a coordinator gathering two workers, wiring the ring and
	// running the smallest plan to completion.
	spec := dist.TrainSpec{
		Cases: 6, Dim: 8, DataSeed: p.sub("form-data"),
		BaseFilters: 2, NetSteps: 2, Kernel: 3, UpKernel: 2, NetSeed: p.sub("net"),
		Loss: "dice", Optimizer: "adam", BaseLR: 1e-3, ScaleLR: true,
		Epochs: 1, GlobalBatch: 2, ShuffleSeed: p.sub("shuffle"),
		CkptPath: filepath.Join(tmp, "form.ckpt"), CkptEverySteps: 1000,
	}
	t0 := time.Now()
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Width: 2, Spec: spec, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	var werrs [2]error
	var res *dist.Result
	var wg sync.WaitGroup
	for r := range werrs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			werrs[r] = dist.RunWorker(dist.WorkerConfig{CoordAddr: coord.Addr(), Workers: 1, Heartbeat: 100 * time.Millisecond})
		}(r)
	}
	res, err = coord.Run()
	wg.Wait()
	out.metrics["dist.form_ms"] = ms(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("coordinated run: %w", err)
	}
	out.check(werrs[0] == nil && werrs[1] == nil && res.Reforms == 0, "coordinated run: workers %v %v, %d reforms", werrs[0], werrs[1], res.Reforms)
	return out, nil
}

// probeStorage times what set-up is made of: phantom generation,
// preprocessing, and a session checkpoint round trip.
func probeStorage(p params) (*outcome, error) {
	out := newOutcome()
	cfg := msd.Config{Cases: p.trainCases, D: p.dim, H: p.dim, W: p.dim, Seed: p.sub("storage-data")}
	var ds *msd.Dataset
	var err error
	genMs := timeMs(p.probeReps, func() { ds, err = msd.Generate(cfg) })
	if err != nil {
		return nil, err
	}
	out.metrics["msd.generate_ms_per_case"] = genMs / float64(cfg.Cases)
	out.metrics["volume.preprocess_ms_per_case"] = timeMs(p.probeReps, func() {
		for _, v := range ds.Cases {
			if _, e := volume.Preprocess(v, p.net().MinVolume()); e != nil {
				err = e
			}
		}
	}) / float64(cfg.Cases)
	if err != nil {
		return nil, err
	}

	rig, err := buildTrainRig(p) // one step taken, so the optimizer has state to save
	if err != nil {
		return nil, err
	}
	sess, err := train.NewSession(train.Config{Strategy: rig.strategy, Epochs: 1, GlobalBatch: p.batch})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	out.metrics["ckpt.session_save_ms"] = timeMs(p.probeReps, func() {
		buf.Reset()
		if e := sess.SaveCheckpoint(&buf); e != nil {
			err = e
		}
	})
	out.metrics["ckpt.session_bytes"] = float64(buf.Len())
	hash := dist.ParamHash(rig.strategy.Model())
	out.metrics["ckpt.session_load_ms"] = timeMs(p.probeReps, func() {
		if e := sess.LoadCheckpoint(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	out.check(dist.ParamHash(rig.strategy.Model()) == hash, "checkpoint round trip changed the parameters")
	return out, nil
}
