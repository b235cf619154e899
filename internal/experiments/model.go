package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/unet"
)

// The analytic model of the paper's training campaigns on MareNostrum-CTE.
// It composes a device model (V100), an interconnect model (NVLink inside a
// node, InfiniBand between nodes) and the workload facts of the paper (339
// training cases, batch 2 per replica, convergence around epoch 90 of a
// 250-epoch budget) into per-step, per-epoch and per-trial durations for
// both distribution strategies.
//
// Data-parallel steps pay compute, host-feed contention among the replicas
// of a node, an all-reduce over the slowest hop of the ring and a straggler
// penalty growing with the node count; experiment-parallel trials pay
// compute plus a shared-filesystem contention term growing with the number
// of concurrently running trials. Table I's shape (near-linear scaling,
// experiment parallelism ahead of data parallelism) emerges from these
// terms.

// Device is an accelerator performance model.
type Device struct {
	PeakFLOPS       float64 // fp32 peak
	Efficiency      float64 // achieved fraction on 3D convolutions
	MemoryBytes     float64 // device memory capacity
	HostFeedBps     float64 // sustainable host→device feed per replica
	KernelLaunchSec float64 // fixed per-step launch/framework overhead
}

// V100 returns the paper's GPU: 15.7 TFLOPS fp32 peak, 16 GB, with a
// conservative achieved efficiency for memory-bound 3D convolutions.
func V100() Device {
	return Device{
		PeakFLOPS:       15.7e12,
		Efficiency:      0.33,
		MemoryBytes:     16e9,
		HostFeedBps:     11e9, // PCIe gen3 x16 effective
		KernelLaunchSec: 2e-3,
	}
}

// StepComputeSec returns the pure-compute seconds for one training step with
// the given per-replica batch on the device.
func (d Device) StepComputeSec(c UNetCost, batchPerReplica int) float64 {
	return float64(batchPerReplica)*c.TrainFLOPs/(d.PeakFLOPS*d.Efficiency) + d.KernelLaunchSec
}

// FeedSec returns the unshared host→device time for one step's inputs.
func (d Device) FeedSec(c UNetCost, batchPerReplica int) float64 {
	return float64(batchPerReplica) * c.InputBytes / d.HostFeedBps
}

// FitsMemory reports whether a per-replica batch, its activations and the
// optimizer state fit device memory.
func (d Device) FitsMemory(c UNetCost, batchPerReplica int) bool {
	return float64(batchPerReplica)*(c.ActivationB+c.InputBytes)+c.OptimizerB <= d.MemoryBytes
}

// MaxBatch returns the largest per-replica batch that fits, 0 if none.
func (d Device) MaxBatch(c UNetCost) int {
	b := 0
	for d.FitsMemory(c, b+1) {
		b++
		if b > 1<<20 {
			break
		}
	}
	return b
}

// UNetCost aggregates the analytic cost of one U-Net configuration on one
// input volume.
type UNetCost struct {
	ForwardFLOPs float64 // per sample, forward pass
	TrainFLOPs   float64 // per sample, forward + backward (≈3x forward)
	Params       int     // trainable parameter count
	ParamBytes   float64 // gradient all-reduce message size (fp32)
	ActivationB  float64 // activation + workspace bytes per sample
	InputBytes   float64 // host→device input volume per sample
	OptimizerB   float64 // parameters + gradients + Adam moments
}

// CostUNet walks the U-Net geometry over a (D, H, W) input volume and
// accumulates layer costs without materializing tensors.
func CostUNet(cfg unet.Config, d, h, w int) (UNetCost, error) {
	if err := cfg.Validate(); err != nil {
		return UNetCost{}, err
	}
	mv := cfg.MinVolume()
	if d%mv != 0 || h%mv != 0 || w%mv != 0 {
		return UNetCost{}, fmt.Errorf("experiments: volume %dx%dx%d not divisible by %d", d, h, w, mv)
	}

	var c UNetCost
	k3 := float64(cfg.Kernel * cfg.Kernel * cfg.Kernel)
	voxels := func(level int) float64 {
		v := float64(d * h * w)
		for i := 1; i < level; i++ {
			v /= float64(cfg.UpKernel * cfg.UpKernel * cfg.UpKernel)
		}
		return v
	}
	conv := func(in, out int, vox, kk float64) {
		c.ForwardFLOPs += 2 * kk * float64(in) * float64(out) * vox
		c.Params += int(kk)*in*out + out
		// conv output + BN xhat cache + ReLU output ≈ 3 activation maps.
		c.ActivationB += 3 * 4 * float64(out) * vox
		c.Params += 2 * out // batch-norm gamma/beta
	}

	in := cfg.InChannels
	for s := 1; s <= cfg.Steps; s++ {
		f := cfg.Filters(s)
		vox := voxels(s)
		conv(in, f, vox, k3)
		conv(f, f, vox, k3)
		in = f
	}
	for s := cfg.Steps - 1; s >= 1; s-- {
		fBelow := cfg.Filters(s + 1)
		f := cfg.Filters(s)
		vox := voxels(s)
		// Transposed conv: one kernel application per output voxel.
		c.ForwardFLOPs += 2 * float64(fBelow) * float64(fBelow) * vox
		c.Params += cfg.UpKernel * cfg.UpKernel * cfg.UpKernel * fBelow * fBelow
		c.Params += fBelow
		c.ActivationB += 4 * float64(fBelow+f) * vox // concat buffer
		conv(fBelow+f, f, vox, k3)
		conv(f, f, vox, k3)
	}
	// Head: 1x1x1 conv + sigmoid.
	c.ForwardFLOPs += 2 * float64(cfg.BaseFilters) * float64(cfg.OutChannels) * voxels(1)
	c.Params += cfg.BaseFilters*cfg.OutChannels + cfg.OutChannels
	c.ActivationB += 2 * 4 * float64(cfg.OutChannels) * voxels(1)

	c.TrainFLOPs = 3 * c.ForwardFLOPs
	c.ParamBytes = 4 * float64(c.Params)
	c.InputBytes = 4 * float64(cfg.InChannels) * float64(d*h*w)
	c.OptimizerB = 4 * c.ParamBytes // value + grad + Adam m + v
	return c, nil
}

// Link is a point-to-point channel with fixed latency (α) and bandwidth
// (1/β).
type Link struct {
	LatencySec   float64
	BandwidthBps float64
}

// TransferTime returns the seconds needed to move size bytes across the
// link.
func (l Link) TransferTime(sizeBytes float64) float64 {
	if sizeBytes < 0 {
		panic(fmt.Sprintf("experiments: negative transfer size %v", sizeBytes))
	}
	return l.LatencySec + sizeBytes/l.BandwidthBps
}

// Fabric is the two-level interconnect of the cluster: rings wider than a
// node (cluster.NodeGPUs) pay InterNode costs on their slowest hop.
type Fabric struct {
	IntraNode Link // GPU ↔ GPU within a node (NVLink)
	InterNode Link // node ↔ node (InfiniBand)
}

// MareNostrum returns the paper's interconnect: NVLink (~130 GB/s effective
// per direction) inside a node and EDR InfiniBand (~12 GB/s effective)
// between nodes.
func MareNostrum() Fabric {
	return Fabric{
		IntraNode: Link{LatencySec: 5e-6, BandwidthBps: 130e9},
		InterNode: Link{LatencySec: 2.5e-6, BandwidthBps: 12e9},
	}
}

// SlowestHop returns the slowest link in a ring over nGPUs devices: once the
// ring spans more than one node, at least one hop crosses InfiniBand and
// the pipeline is throttled by it.
func (f Fabric) SlowestHop(nGPUs int) Link {
	if nGPUs <= cluster.NodeGPUs {
		return f.IntraNode
	}
	return f.InterNode
}

// AllReduceTime returns the seconds for an all-reduce of sizeBytes over
// nGPUs devices: 2·(n−1) steps on the slowest hop, each paying
// stepOverheadSec of software overhead (NCCL launch, framework
// bookkeeping). A ring step moves sizeBytes/n; the gather-then-broadcast
// baseline (ring false) moves the full buffer every step.
func (f Fabric) AllReduceTime(sizeBytes float64, nGPUs int, stepOverheadSec float64, ring bool) float64 {
	if nGPUs <= 1 {
		return 0
	}
	msg := sizeBytes
	if ring {
		msg = sizeBytes / float64(nGPUs)
	}
	steps := float64(2 * (nGPUs - 1))
	return steps * (f.SlowestHop(nGPUs).TransferTime(msg) + stepOverheadSec)
}

// Params collects the workload facts and calibration constants.
type Params struct {
	Device Device
	Fabric Fabric
	Cost   UNetCost

	BatchPerReplica int // paper: 2
	TrainCases      int // paper: 339 (70% of 484)
	MaxEpochs       int // paper: 250

	// Convergence: the paper reports stabilization around epoch 90; the
	// effective trial length is drawn per trial around this mean.
	MeanConvergenceEpoch float64
	ConvergenceStdEpochs float64
	MinConvergenceEpoch  int
	MaxConvergenceEpoch  int

	// Data-parallel overheads.
	HostStallFactor float64 // quadratic host-feed contention coefficient
	SWStepIntraSec  float64 // software overhead per ring step, NVLink
	SWStepInterSec  float64 // software overhead per ring step, InfiniBand
	StragglerFrac   float64 // straggler penalty as a fraction of compute
	StragglerExp    float64 // growth exponent in (nodes-1)

	// Experiment-parallel overheads.
	IOContentionPerTrial float64 // marginal slowdown per running trial
	IOContentionFree     int     // running trials before contention starts
	TrialStartupSec      float64 // Ray actor launch + data staging

	EpochFixedSec float64 // validation/checkpoint cost per epoch
	JitterFrac    float64 // run-to-run duration noise (for repetitions)
}

// Paper returns the model parameterized for the paper's setup: the 3D U-Net
// paper configuration on 240x240x152 volumes, V100 nodes, MSD split.
func Paper() (Params, error) {
	cost, err := CostUNet(unet.PaperConfig(), 152, 240, 240)
	if err != nil {
		return Params{}, err
	}
	return Params{
		Device:               V100(),
		Fabric:               MareNostrum(),
		Cost:                 cost,
		BatchPerReplica:      2,
		TrainCases:           339,
		MaxEpochs:            250,
		MeanConvergenceEpoch: 90,
		ConvergenceStdEpochs: 8,
		MinConvergenceEpoch:  70,
		MaxConvergenceEpoch:  120,
		HostStallFactor:      0.5,
		SWStepIntraSec:       1.5e-4,
		SWStepInterSec:       1.2e-3,
		StragglerFrac:        0.031,
		StragglerExp:         1.5,
		IOContentionPerTrial: 0.035,
		IOContentionFree:     2,
		TrialStartupSec:      20,
		EpochFixedSec:        0.25,
		JitterFrac:           0.03,
	}, nil
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	d, f := p.Device, p.Fabric
	switch {
	case d.PeakFLOPS <= 0 || d.Efficiency <= 0 || d.Efficiency > 1:
		return fmt.Errorf("experiments: bad compute spec %v/%v", d.PeakFLOPS, d.Efficiency)
	case d.MemoryBytes <= 0 || d.HostFeedBps <= 0:
		return fmt.Errorf("experiments: bad memory spec")
	case f.IntraNode.BandwidthBps <= 0 || f.InterNode.BandwidthBps <= 0:
		return fmt.Errorf("experiments: link with non-positive bandwidth")
	case f.IntraNode.LatencySec < 0 || f.InterNode.LatencySec < 0:
		return fmt.Errorf("experiments: link with negative latency")
	case p.BatchPerReplica <= 0:
		return fmt.Errorf("experiments: BatchPerReplica must be positive")
	case p.TrainCases <= 0:
		return fmt.Errorf("experiments: TrainCases must be positive")
	case p.MaxEpochs <= 0:
		return fmt.Errorf("experiments: MaxEpochs must be positive")
	case p.MinConvergenceEpoch > p.MaxConvergenceEpoch:
		return fmt.Errorf("experiments: convergence epoch bounds inverted")
	}
	return nil
}

// StepsPerEpoch returns the optimizer steps per epoch when the global batch
// is BatchPerReplica × nGPUs.
func (p Params) StepsPerEpoch(nGPUs int) int {
	global := p.BatchPerReplica * nGPUs
	return (p.TrainCases + global - 1) / global
}

// ComputeSec returns the pure per-step compute time of one replica.
func (p Params) ComputeSec() float64 {
	return p.Device.StepComputeSec(p.Cost, p.BatchPerReplica)
}

// HostStallSec models input-feed contention when r replicas share one
// node's host: synchronous steps are gated by the slowest feed, which grows
// quadratically with the number of competing replicas.
func (p Params) HostStallSec(replicasOnNode int) float64 {
	if replicasOnNode <= 1 {
		return 0
	}
	feed := p.Device.FeedSec(p.Cost, p.BatchPerReplica)
	d := float64(replicasOnNode - 1)
	return p.HostStallFactor * feed * d * d
}

// AllReduceSec returns the per-step gradient synchronization time over n
// replicas, with the software overhead of the slowest tier, by the ring or
// (ring false) by gather-then-broadcast.
func (p Params) AllReduceSec(nGPUs int, ring bool) float64 {
	if nGPUs <= 1 {
		return 0
	}
	sw := p.SWStepIntraSec
	if nGPUs > cluster.NodeGPUs {
		sw = p.SWStepInterSec
	}
	return p.Fabric.AllReduceTime(p.Cost.ParamBytes, nGPUs, sw, ring)
}

// StragglerSec models the synchronization tail across nodes: jitter on any
// node delays every synchronous step.
func (p Params) StragglerSec(nGPUs int) float64 {
	nodes := (nGPUs + cluster.NodeGPUs - 1) / cluster.NodeGPUs
	if nodes <= 1 {
		return 0
	}
	return p.ComputeSec() * p.StragglerFrac * math.Pow(float64(nodes-1), p.StragglerExp)
}

// StepTimeDataParallel returns the wall seconds of one synchronous
// data-parallel step over n GPUs, synchronizing by the ring all-reduce or
// (ring false) by gather-then-broadcast.
func (p Params) StepTimeDataParallel(nGPUs int, ring bool) float64 {
	replicasOnNode := min(nGPUs, cluster.NodeGPUs)
	return p.ComputeSec() + p.HostStallSec(replicasOnNode) + p.AllReduceSec(nGPUs, ring) + p.StragglerSec(nGPUs)
}

// EpochTimeDataParallel returns the wall seconds of one training epoch over
// n GPUs, including fixed per-epoch costs.
func (p Params) EpochTimeDataParallel(nGPUs int, ring bool) float64 {
	return float64(p.StepsPerEpoch(nGPUs))*p.StepTimeDataParallel(nGPUs, ring) + p.EpochFixedSec
}

// TrialTimeSingleGPU returns the wall seconds of one experiment-parallel
// trial on a single uncontended GPU (excluding startup).
func (p Params) TrialTimeSingleGPU(epochs int) float64 {
	return float64(epochs) * (float64(p.StepsPerEpoch(1))*p.ComputeSec() + p.EpochFixedSec)
}

// IOSlowdown returns the multiplicative slowdown experienced by each trial
// when nActive trials are concurrently reading the shared filesystem.
func (p Params) IOSlowdown(nActive int) float64 {
	excess := nActive - p.IOContentionFree
	if excess <= 0 {
		return 1
	}
	return 1 + p.IOContentionPerTrial*float64(excess)
}

// ConvergenceEpochs draws the effective epoch count of one trial: the paper
// trains with a 250-epoch budget but stabilizes around epoch 90.
func (p Params) ConvergenceEpochs(rng *rand.Rand) int {
	e := int(math.Round(p.MeanConvergenceEpoch + rng.NormFloat64()*p.ConvergenceStdEpochs))
	if e < p.MinConvergenceEpoch {
		e = p.MinConvergenceEpoch
	}
	if e > p.MaxConvergenceEpoch {
		e = p.MaxConvergenceEpoch
	}
	if e > p.MaxEpochs {
		e = p.MaxEpochs
	}
	return e
}

// Jitter returns a multiplicative noise factor for one run.
func (p Params) Jitter(rng *rand.Rand) float64 {
	if p.JitterFrac == 0 {
		return 1
	}
	return 1 + rng.NormFloat64()*p.JitterFrac
}
