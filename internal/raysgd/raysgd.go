// Package raysgd is the multi-node data-parallel orchestration layer, the
// analogue of Ray.SGD over Distributed TensorFlow. The paper's three
// parallelism cases (§III-B.2) — sequential on one GPU, MirroredStrategy
// within a node, Ray cluster across nodes — are one synchronous step at
// different widths, so every case builds a mirrored.Trainer with one
// replica per GPU, and the GPU count decides only the ring layout: flat
// within a node (the sequential case is width 1, whose step skips the
// reduction) or, across nodes, hierarchical with one group per node
// (mirrored.Config.GroupSize = GPUsPerNode). The epoch loop itself lives in
// train.Session: NewSession builds one over the trainer with its global
// batch, seed and flips, and callers compose reporting and checkpointing
// as callbacks.
package raysgd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mirrored"
	"repro/internal/train"
	"repro/internal/unet"
)

// groupSize returns the ring's group size for gpus GPUs on nodes of
// perNode: 0, the flat ring, when they fit one node; one group per node
// when they span several.
func groupSize(gpus, perNode int) int {
	if gpus > perNode {
		return perNode
	}
	return 0
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

	// Flip mirrors training samples along random axes each epoch (seeded
	// by Seed, the epoch and the sample index); see train.Config.Flip.
	Flip bool
}

// Trainer is a distributed data-parallel trainer: a mirrored.Trainer laid
// out for the GPU count plus the session wiring to drive it.
type Trainer struct {
	cfg       Config
	groupSize int // the ring's group size; 0 is the flat ring
	strat     train.Strategy
}

// New validates the config and builds the mirrored trainer, its ring
// grouped by node when the GPUs span more than one.
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
	mcfg := mirrored.Config{
		Replicas:  cfg.GPUs,
		Net:       cfg.Net,
		Loss:      cfg.Loss,
		Optimizer: cfg.Optimizer,
		BaseLR:    cfg.BaseLR,
		ScaleLR:   true,
		Workers:   cfg.Workers,
		GroupSize: groupSize(cfg.GPUs, cfg.Cluster.GPUsPerNode),
	}
	strat, err := mirrored.New(mcfg)
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, groupSize: mcfg.GroupSize, strat: strat}, nil
}

// Strategy returns the trainer's mirrored.Trainer as a train.Strategy: the
// (synchronized) model and the learning rate in use.
func (t *Trainer) Strategy() train.Strategy { return t.strat }

// GlobalBatch returns BatchPerReplica × GPUs, the paper's scaling rule.
func (t *Trainer) GlobalBatch() int { return t.cfg.BatchPerReplica * t.cfg.GPUs }

// NewSession builds a train.Session over the trainer's strategy with the
// trainer's batch, seed and flips plus the given callbacks.
func (t *Trainer) NewSession(epochs int, callbacks ...train.Callback) (*train.Session, error) {
	return train.NewSession(train.Config{
		Strategy:    t.strat,
		Epochs:      epochs,
		GlobalBatch: t.GlobalBatch(),
		Seed:        t.cfg.Seed,
		Flip:        t.cfg.Flip,
		Callbacks:   callbacks,
	})
}
