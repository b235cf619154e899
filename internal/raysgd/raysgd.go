// Package raysgd is the multi-node data-parallel orchestration layer, the
// analogue of Ray.SGD over Distributed TensorFlow: it selects the paper's
// three parallelism cases from the GPU count (§III-B.2) — sequential on one
// GPU, MirroredStrategy within a node, Ray cluster across nodes. The three
// are one synchronous step at different widths, so every case builds a
// mirrored.Trainer with one replica per GPU; the mode chooses only the ring
// layout: flat within a node (the sequential case is width 1, whose step
// skips the reduction) or, across nodes, hierarchical with one group per
// node (mirrored.Config.GroupSize = GPUsPerNode). The epoch loop itself
// lives in train.Session: NewSession builds one over the trainer with its
// global batch, seed, flips and cyclic learning-rate schedule, and callers
// compose reporting and checkpointing as callbacks.
package raysgd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mirrored"
	"repro/internal/optim"
	"repro/internal/train"
	"repro/internal/unet"
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

	// Flip mirrors training samples along random axes each epoch (seeded
	// by Seed, the epoch and the sample index); see train.Config.Flip.
	Flip bool
}

// Trainer is a distributed data-parallel trainer: a mirrored.Trainer laid
// out for the selected mode plus the session wiring to drive it.
type Trainer struct {
	cfg   Config
	mode  Mode
	strat train.Strategy
}

// New validates the config and builds the mirrored trainer for the selected
// mode.
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
	strat, err := mirrored.New(mcfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, mode: mode, strat: strat}, nil
}

// Mode returns the selected parallelism case.
func (t *Trainer) Mode() Mode { return t.mode }

// Strategy returns the trainer's mirrored.Trainer as a train.Strategy: the
// (synchronized) model and the learning rate in use.
func (t *Trainer) Strategy() train.Strategy { return t.strat }

// GlobalBatch returns BatchPerReplica × GPUs, the paper's scaling rule.
func (t *Trainer) GlobalBatch() int { return t.cfg.BatchPerReplica * t.cfg.GPUs }

// NewSession builds a train.Session over the trainer's strategy with the
// trainer's batch, seed, flips and learning-rate schedule plus the
// given extra callbacks.
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
		Flip:        t.cfg.Flip,
		Callbacks:   cbs,
	})
}
