// Package raysgd is the multi-node data-parallel orchestration layer, the
// analogue of Ray.SGD over Distributed TensorFlow: it selects the paper's
// three parallelism cases from the GPU count (§III-B.2) — sequential on one
// GPU, MirroredStrategy within a node, Ray cluster across nodes — and builds
// the matching train.Strategy: a single model, or a mirrored.Trainer whose
// ranks reduce over a flat ring within a node or, across nodes, over the
// hierarchical layout with one group per node (mirrored.Config.GroupSize =
// GPUsPerNode). The epoch loop itself lives in train.Session; Fit is
// a thin adapter that wires the trainer's cyclic learning-rate schedule and
// reporting hook into the session's callback chain.
package raysgd

import (
	"fmt"

	"repro/internal/augment"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mirrored"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/unet"
	"repro/internal/volume"
)

// Mode is the parallelism case selected from the GPU count.
type Mode int

// The paper's three cases (§III-B.2).
const (
	// Sequential: n = 1, no parallelism.
	Sequential Mode = iota
	// MirroredSingleNode: 1 < n ≤ M, Distributed TensorFlow inside one node.
	MirroredSingleNode
	// RayCluster: n > M, Ray.SGD across physical nodes.
	RayCluster
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case MirroredSingleNode:
		return "mirrored-single-node"
	case RayCluster:
		return "ray-cluster"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeFor returns the parallelism case for n GPUs on nodes of width m.
func ModeFor(n, m int) Mode {
	switch {
	case n <= 1:
		return Sequential
	case n <= m:
		return MirroredSingleNode
	default:
		return RayCluster
	}
}

// Config describes a distributed training job.
type Config struct {
	Cluster         *cluster.Cluster
	GPUs            int
	Net             unet.Config
	Loss            string
	Optimizer       string
	BaseLR          float64
	BatchPerReplica int // paper: 2
	Seed            int64

	// Workers is the total compute-worker budget shared by all replicas
	// (0 = all cores); forwarded to the strategy.
	Workers int

	// CyclicLR optionally applies the paper's cyclic learning-rate
	// schedule across optimizer steps.
	CyclicLR *optim.CyclicLR

	// Augment optionally transforms training samples each epoch (seeded by
	// epoch and sample index); nil trains on the raw samples.
	Augment *augment.Pipeline
}

// Trainer is a distributed data-parallel trainer: a mode-selected
// train.Strategy plus the session wiring to drive it.
type Trainer struct {
	cfg   Config
	mode  Mode
	strat train.Strategy
	step  int // global optimizer step, continuous across Fit calls

	// sess is the long-lived session behind Fit: created on the first call
	// and extended on every later one, so repeated Fit calls continue the
	// epoch/step cursor, history and optimizer state instead of
	// restarting — k epochs then m more over the same data is bit-identical
	// to one k+m run. report is the current Fit call's per-epoch hook,
	// delivered through one persistent ReportFunc callback.
	sess   *train.Session
	report func(EpochStats) bool
}

// New validates the config and builds the strategy for the selected mode.
func New(cfg Config) (*Trainer, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("raysgd: nil cluster")
	}
	if cfg.GPUs < 1 || cfg.GPUs > cfg.Cluster.TotalGPUs() {
		return nil, fmt.Errorf("raysgd: %d GPUs requested, cluster has %d", cfg.GPUs, cfg.Cluster.TotalGPUs())
	}
	if cfg.BatchPerReplica < 1 {
		return nil, fmt.Errorf("raysgd: BatchPerReplica must be ≥ 1")
	}
	mode := ModeFor(cfg.GPUs, cfg.Cluster.GPUsPerNode)

	var strat train.Strategy
	var err error
	if mode == Sequential {
		// One replica: the linear LR scaling rule is the identity and no
		// gradient reduction is needed — train.Single skips both without
		// changing a bit of the arithmetic.
		strat, err = train.NewSingle(train.SingleConfig{
			Net:       cfg.Net,
			Loss:      cfg.Loss,
			Optimizer: cfg.Optimizer,
			LR:        cfg.BaseLR,
			Workers:   cfg.Workers,
		})
	} else {
		mcfg := mirrored.Config{
			Replicas:  cfg.GPUs,
			Net:       cfg.Net,
			Loss:      cfg.Loss,
			Optimizer: cfg.Optimizer,
			BaseLR:    cfg.BaseLR,
			ScaleLR:   true,
			Workers:   cfg.Workers,
		}
		if mode == RayCluster {
			mcfg.GroupSize = cfg.Cluster.GPUsPerNode
		}
		strat, err = mirrored.New(mcfg)
	}
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, mode: mode, strat: strat}, nil
}

// Mode returns the selected parallelism case.
func (t *Trainer) Mode() Mode { return t.mode }

// Strategy returns the mode-selected train.Strategy, for callers that build
// their own train.Session over it.
func (t *Trainer) Strategy() train.Strategy { return t.strat }

// GlobalBatch returns BatchPerReplica × GPUs, the paper's scaling rule.
func (t *Trainer) GlobalBatch() int { return t.cfg.BatchPerReplica * t.cfg.GPUs }

// EffectiveLR returns the scaled learning rate in use.
func (t *Trainer) EffectiveLR() float64 { return t.strat.LR() }

// Model returns the (synchronized) model.
func (t *Trainer) Model() *unet.UNet { return t.strat.Model() }

// InSync reports whether all replicas agree bitwise.
func (t *Trainer) InSync() bool { return t.strat.InSync() }

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
	ValDice  float64
	Steps    int
}

// NewSession builds a train.Session over the trainer's strategy with the
// trainer's batch, seed, augmentation and learning-rate schedule plus the
// given extra callbacks. The session's step counter continues from the
// trainer's, so cyclic schedules stay continuous across sessions.
func (t *Trainer) NewSession(epochs int, callbacks ...train.Callback) (*train.Session, error) {
	var cbs []train.Callback
	if t.cfg.CyclicLR != nil {
		cbs = append(cbs, &train.LRSchedule{Schedule: t.cfg.CyclicLR})
	}
	cbs = append(cbs, callbacks...)
	return train.NewSession(train.Config{
		Strategy:    t.strat,
		Epochs:      epochs,
		GlobalBatch: t.GlobalBatch(),
		Seed:        t.cfg.Seed,
		Augment:     t.cfg.Augment,
		Callbacks:   cbs,
		InitialStep: t.step,
	})
}

// Fit trains for the given number of epochs over the training samples,
// evaluating on the validation samples after each epoch. The report
// callback, when non-nil, receives per-epoch statistics; returning false
// stops training early (the hook the experiment-parallel layer uses).
//
// The trainer keeps one train.Session alive across Fit calls: the first
// call creates it, every later call extends its epoch budget, so the
// epoch/step cursor, metric history and optimizer state continue where the
// previous call stopped — Fit(d, k) then Fit(d, m) is bit-identical to
// Fit(d, k+m). Callers needing checkpoints, early stopping or cache hooks
// use NewSession and compose callbacks directly.
func (t *Trainer) Fit(trainSet, val []*volume.Sample, epochs int, report func(EpochStats) bool) (*EpochStats, error) {
	t.report = report
	if t.sess == nil {
		sess, err := t.NewSession(epochs, train.ReportFunc(func(st train.EpochStats) bool {
			if t.report == nil {
				return true
			}
			return t.report(EpochStats(st))
		}))
		if err != nil {
			return nil, err
		}
		t.sess = sess
	} else {
		// A report returning false in an earlier call latched a stop; a new
		// Fit is an explicit request for more epochs, so release it.
		t.sess.ClearStop()
		if epochs > 0 {
			if err := t.sess.ExtendEpochs(epochs); err != nil {
				return nil, err
			}
		}
	}
	last, err := t.sess.Fit(trainSet, val)
	if err != nil {
		return nil, err
	}
	t.step = t.sess.Step()
	out := EpochStats(*last)
	return &out, nil
}

// Session returns the trainer's long-lived session, nil before the first
// Fit call.
func (t *Trainer) Session() *train.Session { return t.sess }

// Predict runs full-volume inference on one sample in evaluation mode and
// returns the per-voxel probability map ([OutChannels, D, H, W]).
func (t *Trainer) Predict(s *volume.Sample) (*tensor.Tensor, error) {
	in, _, err := volume.Batch([]*volume.Sample{s})
	if err != nil {
		return nil, err
	}
	m := t.Model()
	m.SetTraining(false)
	defer m.SetTraining(true)
	pred := m.Forward(in)
	shape := pred.Shape()
	return pred.Reshape(shape[1:]...), nil
}

// EvaluateSet returns the mean hard Dice of the current model over a sample
// set — the paper's test-set evaluation ("the dataset is split for training,
// validation and evaluation").
func (t *Trainer) EvaluateSet(samples []*volume.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("raysgd: empty evaluation set")
	}
	var sum float64
	for _, s := range samples {
		pred, err := t.Predict(s)
		if err != nil {
			return 0, err
		}
		sum += metrics.DiceScore(pred, s.Mask)
	}
	return sum / float64(len(samples)), nil
}
