package experiments

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/unet"
)

func paper(t *testing.T) Params {
	t.Helper()
	p, err := Paper()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func paperCost(t *testing.T) UNetCost {
	t.Helper()
	c, err := CostUNet(unet.PaperConfig(), 152, 240, 240)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperParamsValid(t *testing.T) {
	if err := paper(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

// spoilsFail checks that each spoiled copy of the paper's Params is invalid.
func spoilsFail(t *testing.T, spoils map[string]func(*Params)) {
	t.Helper()
	for name, spoil := range spoils {
		p := paper(t)
		spoil(&p)
		if p.Validate() == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	spoilsFail(t, map[string]func(*Params){
		"zero batch":      func(p *Params) { p.BatchPerReplica = 0 },
		"zero cases":      func(p *Params) { p.TrainCases = 0 },
		"zero epochs":     func(p *Params) { p.MaxEpochs = 0 },
		"inverted bounds": func(p *Params) { p.MinConvergenceEpoch, p.MaxConvergenceEpoch = 100, 50 },
	})
}

func TestValidateRejectsBadDevice(t *testing.T) {
	spoilsFail(t, map[string]func(*Params){
		"zero peak":          func(p *Params) { p.Device.PeakFLOPS = 0 },
		"efficiency above 1": func(p *Params) { p.Device.Efficiency = 1.5 },
		"zero memory":        func(p *Params) { p.Device.MemoryBytes = 0 },
	})
}

func TestValidateRejectsBadFabric(t *testing.T) {
	spoilsFail(t, map[string]func(*Params){
		"zero intra bandwidth": func(p *Params) { p.Fabric.IntraNode.BandwidthBps = 0 },
		"negative latency":     func(p *Params) { p.Fabric.InterNode.LatencySec = -1 },
	})
}

func TestV100Sane(t *testing.T) {
	if d := V100(); d.MemoryBytes != 16e9 {
		t.Fatalf("paper GPUs have 16 GB, got %v", d.MemoryBytes)
	}
}

func TestCostParamCountMatchesRealModel(t *testing.T) {
	// The analytic walker must agree exactly with the parameter count of
	// the actually-built network.
	c := paperCost(t)
	u := unet.MustNew(unet.PaperConfig())
	if c.Params != u.ParamCount() {
		t.Fatalf("analytic %d vs real %d parameters", c.Params, u.ParamCount())
	}
	if c.ParamBytes != 4*float64(c.Params) {
		t.Fatal("param bytes must be 4·params (fp32)")
	}
}

func TestCostParamCountMatchesTinyModel(t *testing.T) {
	cfg := unet.Config{InChannels: 2, OutChannels: 1, BaseFilters: 4, Steps: 3, Kernel: 3, UpKernel: 2, Seed: 1}
	c, err := CostUNet(cfg, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := unet.MustNew(cfg).ParamCount(); c.Params != got {
		t.Fatalf("analytic %d vs real %d", c.Params, got)
	}
}

func TestCostRejectsBadVolume(t *testing.T) {
	if _, err := CostUNet(unet.PaperConfig(), 150, 240, 240); err == nil {
		t.Fatal("150 not divisible by 8 must error")
	}
	if _, err := CostUNet(unet.Config{}, 8, 8, 8); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestPaperFLOPsMagnitude(t *testing.T) {
	// Forward pass of the paper U-Net on a full volume should land in the
	// hundreds of GFLOPs; training ≈ 3x that.
	c := paperCost(t)
	if c.ForwardFLOPs < 1e11 || c.ForwardFLOPs > 1e12 {
		t.Fatalf("forward FLOPs %.3g outside plausible range", c.ForwardFLOPs)
	}
	if c.TrainFLOPs != 3*c.ForwardFLOPs {
		t.Fatal("train FLOPs must be 3x forward")
	}
}

func TestPaperStepTimeMagnitude(t *testing.T) {
	// Batch 2 on a V100 should take on the order of 0.1–1 s per step,
	// consistent with the paper's ~44 h for a full search on one GPU.
	step := V100().StepComputeSec(paperCost(t), 2)
	if step < 0.05 || step > 2 {
		t.Fatalf("step time %v s implausible", step)
	}
}

func TestMemoryModelForcesPaperBatch(t *testing.T) {
	// The paper: "batch sizes are forcefully reduced to 2 or even 1 input,
	// as there is no room in GPU memory for more". Our model must make
	// batch 2 fit in 16 GB and keep the ceiling small.
	d := V100()
	c := paperCost(t)
	if !d.FitsMemory(c, 1) {
		t.Fatal("batch 1 must fit")
	}
	if !d.FitsMemory(c, 2) {
		t.Fatal("batch 2 must fit (the paper trains with it)")
	}
	max := d.MaxBatch(c)
	if max < 2 || max > 4 {
		t.Fatalf("max batch %d; the paper's memory wall implies 2-4", max)
	}
}

func TestFeedSec(t *testing.T) {
	c := paperCost(t)
	// One sample = 4 channels × 240×240×152 × 4 B ≈ 140 MB.
	wantBytes := 4.0 * 240 * 240 * 152 * 4
	if c.InputBytes != wantBytes {
		t.Fatalf("input bytes %v, want %v", c.InputBytes, wantBytes)
	}
	if V100().FeedSec(c, 2) <= 0 {
		t.Fatal("feed time must be positive")
	}
}

func TestMaxBatchZeroWhenNothingFits(t *testing.T) {
	d := V100()
	d.MemoryBytes = 1 // 1 byte GPU
	if d.MaxBatch(paperCost(t)) != 0 {
		t.Fatal("nothing should fit in a 1-byte device")
	}
}

func TestCostScalesWithVolume(t *testing.T) {
	cfg := unet.PaperConfig()
	small, err := CostUNet(cfg, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CostUNet(cfg, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.ForwardFLOPs / small.ForwardFLOPs
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("8x volume should be ≈8x FLOPs, got %v", ratio)
	}
	// Parameters are volume-independent.
	if small.Params != big.Params {
		t.Fatal("parameter count must not depend on volume")
	}
}

func TestCostScalesWithBaseFilters(t *testing.T) {
	a := unet.PaperConfig()
	b := unet.PaperConfig()
	b.BaseFilters = 16
	ca, err := CostUNet(a, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CostUNet(b, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cb.ForwardFLOPs <= 2*ca.ForwardFLOPs {
		t.Fatal("doubling filters should much more than double FLOPs")
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{LatencySec: 1e-3, BandwidthBps: 1e9}
	// 1 MB over 1 GB/s = 1 ms, plus 1 ms latency.
	got := l.TransferTime(1e6)
	if math.Abs(got-2e-3) > 1e-12 {
		t.Fatalf("got %v", got)
	}
	if l.TransferTime(0) != 1e-3 {
		t.Fatal("zero-byte transfer must cost exactly the latency")
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Link{BandwidthBps: 1}.TransferTime(-1)
}

func TestMareNostrumFabricSane(t *testing.T) {
	f := MareNostrum()
	if f.IntraNode.BandwidthBps <= f.InterNode.BandwidthBps {
		t.Fatal("NVLink must be faster than InfiniBand")
	}
}

func TestSlowestHop(t *testing.T) {
	f := MareNostrum()
	if got := f.SlowestHop(cluster.NodeGPUs); got != f.IntraNode {
		t.Fatalf("a node's %d GPUs should stay on NVLink, got %+v", cluster.NodeGPUs, got)
	}
	if got := f.SlowestHop(cluster.NodeGPUs + 1); got != f.InterNode {
		t.Fatalf("%d GPUs must cross nodes, got %+v", cluster.NodeGPUs+1, got)
	}
}

func TestRingAllReduceZeroForOneGPU(t *testing.T) {
	if MareNostrum().AllReduceTime(1e9, 1, 1e-3, true) != 0 {
		t.Fatal("single GPU needs no all-reduce")
	}
}

func TestRingAllReduceGrowsAcrossNodes(t *testing.T) {
	f := MareNostrum()
	size := 1.64e6 // paper gradient: ~410k params × 4 B
	intra := f.AllReduceTime(size, 4, 0, true)
	inter := f.AllReduceTime(size, 8, 0, true)
	if inter <= intra {
		t.Fatalf("crossing nodes must cost more: %v vs %v", inter, intra)
	}
}

func TestRingBeatsNaiveForLargeMessages(t *testing.T) {
	f := MareNostrum()
	for _, n := range []int{4, 8, 16, 32} {
		ring := f.AllReduceTime(100e6, n, 0, true)
		naive := f.AllReduceTime(100e6, n, 0, false)
		if ring >= naive {
			t.Fatalf("n=%d: ring %v should beat naive %v", n, ring, naive)
		}
	}
}

func TestAllReduceStepOverheadCounts(t *testing.T) {
	f := MareNostrum()
	base := f.AllReduceTime(1e6, 8, 0, true)
	withOverhead := f.AllReduceTime(1e6, 8, 1e-3, true)
	// 2·(8−1) = 14 steps of 1 ms extra.
	if math.Abs((withOverhead-base)-14e-3) > 1e-9 {
		t.Fatalf("overhead accounting wrong: %v", withOverhead-base)
	}
}

// Property: ring all-reduce time is monotone in message size.
func TestPropertyRingMonotoneInSize(t *testing.T) {
	f := MareNostrum()
	prop := func(aRaw, bRaw uint32, nRaw uint8) bool {
		n := int(nRaw)%31 + 2
		a, b := float64(aRaw), float64(bRaw)
		if a > b {
			a, b = b, a
		}
		return f.AllReduceTime(a, n, 1e-4, true) <= f.AllReduceTime(b, n, 1e-4, true)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepsPerEpochPaperLadder(t *testing.T) {
	p := paper(t)
	// 339 cases, batch 2 per replica: the paper's global batch is 2·n.
	want := map[int]int{1: 170, 2: 85, 4: 43, 8: 22, 12: 15, 16: 11, 32: 6}
	for n, steps := range want {
		if got := p.StepsPerEpoch(n); got != steps {
			t.Fatalf("StepsPerEpoch(%d) = %d, want %d", n, got, steps)
		}
	}
}

func TestComputeSecPlausible(t *testing.T) {
	// Batch-2 step compute should be a few hundred ms on a V100, so one
	// 90-epoch experiment on 1 GPU lands near the paper's ~1.4 h.
	c := paper(t).ComputeSec()
	if c < 0.1 || c > 1.0 {
		t.Fatalf("compute %v s implausible", c)
	}
}

func TestHostStallGrowsQuadratically(t *testing.T) {
	p := paper(t)
	if p.HostStallSec(1) != 0 {
		t.Fatal("single replica has no feed contention")
	}
	s2, s3, s4 := p.HostStallSec(2), p.HostStallSec(3), p.HostStallSec(4)
	if !(s2 < s3 && s3 < s4) {
		t.Fatal("stall must grow with replicas")
	}
	if math.Abs(s4/s2-9) > 1e-9 {
		t.Fatalf("quadratic growth violated: s4/s2 = %v", s4/s2)
	}
}

func TestAllReduceTiers(t *testing.T) {
	p := paper(t)
	if p.AllReduceSec(1, true) != 0 {
		t.Fatal("no all-reduce on one GPU")
	}
	intra := p.AllReduceSec(4, true)
	inter := p.AllReduceSec(8, true)
	if inter < 5*intra {
		t.Fatalf("InfiniBand tier should dominate: intra %v inter %v", intra, inter)
	}
}

func TestStragglerOnlyAcrossNodes(t *testing.T) {
	p := paper(t)
	for _, n := range []int{1, 2, 4} {
		if p.StragglerSec(n) != 0 {
			t.Fatalf("no straggler term within a node (n=%d)", n)
		}
	}
	if !(p.StragglerSec(8) < p.StragglerSec(16) && p.StragglerSec(16) < p.StragglerSec(32)) {
		t.Fatal("straggler term must grow with node count")
	}
}

func TestStepTimeMonotoneInGPUs(t *testing.T) {
	p := paper(t)
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 12, 16, 32} {
		s := p.StepTimeDataParallel(n, true)
		if s < prev {
			t.Fatalf("step time decreased at n=%d", n)
		}
		prev = s
	}
}

func TestEpochTimeDecreasesWithGPUs(t *testing.T) {
	// More GPUs → fewer, slightly slower steps → shorter epochs overall.
	p := paper(t)
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		e := p.EpochTimeDataParallel(n, true)
		if e >= prev {
			t.Fatalf("epoch time must shrink with GPUs, broke at n=%d", n)
		}
		prev = e
	}
}

func TestSingleGPUExperimentNearPaperScale(t *testing.T) {
	// 32 experiments × ~90 epochs on one GPU should land within a factor
	// of two of the paper's 44:18:02 for the whole search.
	p := paper(t)
	total := 32 * 90 * p.EpochTimeDataParallel(1, true)
	paperSec := 44*3600 + 18*60 + 2.0
	if total < paperSec/2 || total > paperSec*2 {
		t.Fatalf("campaign %v h vs paper %v h: outside 2x band", total/3600, paperSec/3600)
	}
}

func TestIOSlowdown(t *testing.T) {
	p := paper(t)
	if p.IOSlowdown(1) != 1 || p.IOSlowdown(2) != 1 {
		t.Fatal("contention-free region violated")
	}
	if !(p.IOSlowdown(8) < p.IOSlowdown(16) && p.IOSlowdown(16) < p.IOSlowdown(32)) {
		t.Fatal("slowdown must grow with active trials")
	}
	if p.IOSlowdown(32) > 3 {
		t.Fatalf("slowdown at 32 trials %v too severe", p.IOSlowdown(32))
	}
}

func TestConvergenceEpochsBounded(t *testing.T) {
	p := paper(t)
	rng := rand.New(rand.NewSource(1))
	sum := 0
	for i := 0; i < 1000; i++ {
		e := p.ConvergenceEpochs(rng)
		if e < p.MinConvergenceEpoch || e > p.MaxConvergenceEpoch || e > p.MaxEpochs {
			t.Fatalf("epoch %d out of bounds", e)
		}
		sum += e
	}
	mean := float64(sum) / 1000
	if math.Abs(mean-p.MeanConvergenceEpoch) > 3 {
		t.Fatalf("mean convergence %v far from %v", mean, p.MeanConvergenceEpoch)
	}
}

func TestJitterCentredOnOne(t *testing.T) {
	p := paper(t)
	rng := rand.New(rand.NewSource(2))
	var sum float64
	for i := 0; i < 1000; i++ {
		sum += p.Jitter(rng)
	}
	if math.Abs(sum/1000-1) > 0.01 {
		t.Fatalf("jitter mean %v", sum/1000)
	}
	p.JitterFrac = 0
	if p.Jitter(rng) != 1 {
		t.Fatal("zero jitter must be exactly 1")
	}
}

// Property: without jitter, a data-parallel experiment's training time is
// linear in its epochs.
func TestPropertyExperimentLinearInEpochs(t *testing.T) {
	p := paper(t)
	p.JitterFrac = 0
	train := func(n, e int) float64 {
		return DataParallelCampaignSec(p, n, []int{e}, nil) - p.TrialStartupSec
	}
	f := func(nRaw, eRaw uint8) bool {
		n := int(nRaw)%32 + 1
		e := int(eRaw)%200 + 1
		a, b := train(n, e), train(n, 2*e)
		return math.Abs(b-2*a) < 1e-6*math.Abs(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: experiment-parallel trials never run faster under contention.
func TestPropertyIOSlowdownMonotone(t *testing.T) {
	p := paper(t)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw)%64, int(bRaw)%64
		if a > b {
			a, b = b, a
		}
		return p.IOSlowdown(a) <= p.IOSlowdown(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentParallelGreedyFIFO: trials launch in order onto the first
// free GPU, and each pays the contention of the trials running at its
// launch. Without jitter or startup, epochs {3, 1, 1, 2} on two GPUs finish
// at 3u, 1u, 2u and 4u (u = one uncontended epoch).
func TestExperimentParallelGreedyFIFO(t *testing.T) {
	p := paper(t)
	p.JitterFrac, p.TrialStartupSec, p.IOContentionFree = 0, 0, 100
	u := p.TrialTimeSingleGPU(1)
	if got := ExperimentParallelCampaignSec(p, 2, []int{3, 1, 1, 2}, nil); got != 4*u {
		t.Fatalf("makespan %v, want %v", got, 4*u)
	}
	if got := ExperimentParallelCampaignSec(p, 2, nil, nil); got != 0 {
		t.Fatalf("empty search makespan %v", got)
	}
	// With contention from the first running trial on, the first trial
	// runs 1+c times slower, the second 1+2c, and so does the third, which
	// launches beside the first.
	p.IOContentionFree = 0
	c := p.IOContentionPerTrial
	got := ExperimentParallelCampaignSec(p, 2, []int{3, 1, 1}, nil)
	want := max(3*u*(1+c), u*(1+2*c)+u*(1+2*c))
	if got != want {
		t.Fatalf("contended makespan %v, want %v", got, want)
	}
}
