package train

import (
	"repro/internal/allreduce"
	"repro/internal/mirrored"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Strategy is the pluggable distribution strategy a Session drives: it owns
// the model replicas (or, for one member of a multi-process step, this
// process's replica) and applies one synchronous optimization step per
// global batch. mirrored.Trainer satisfies it (R replicas in one process,
// ring or hierarchical all-reduce), as does mirrored.Rank (one member of
// the same step, run by each dist worker over TCP, and at width 1 the
// paper's sequential case, Single below). Implementations must keep Step
// deterministic for a fixed input — the checkpoint layer depends on
// replayed steps being bit-identical.
type Strategy interface {
	// Step runs one optimization step on a global batch ([N, C, D, H, W]
	// inputs, [N, 1, D, H, W] masks) and returns the mean replica loss.
	Step(inputs, masks *tensor.Tensor) (float64, error)
	// Evaluate returns the mean hard Dice of the model's Infer over a batch;
	// it writes nothing the next Step reads.
	Evaluate(inputs, masks *tensor.Tensor) float64
	// Model returns the canonical (replica 0) network — the checkpoint
	// read/write target.
	Model() *unet.UNet
	// Replicas returns the data-parallel width.
	Replicas() int
	// LR and SetLR expose the effective learning rate for schedules.
	LR() float64
	SetLR(lr float64)
	// ExportOptimState / ImportOptimState round-trip the optimizer internals
	// (moments, step counter) as float64 slices for bit-exact checkpointing.
	ExportOptimState() (map[string][]float64, error)
	ImportOptimState(map[string][]float64) error
	// BroadcastParams copies Model()'s parameters and auxiliary state to
	// every other replica (checkpoint loaders write replica 0, then
	// broadcast).
	BroadcastParams()
}

// SingleConfig describes a single-replica strategy.
type SingleConfig struct {
	Net       unet.Config
	Loss      string  // "dice", "quadratic-dice", "bce"
	Optimizer string  // "adam", "sgd"
	LR        float64 // applied as-is (no replica scaling: one replica)
	Workers   int     // compute-worker budget (0 = all cores)
}

// Single is the paper's sequential strategy: the data-parallel step at
// width 1, one mirrored.Rank over a one-member topology. The step skips the
// gradient reduction (averaging one buffer is the identity), so it is the
// same arithmetic as a one-replica mirrored.Trainer, bit for bit.
type Single = mirrored.Rank

// NewSingle builds the sequential strategy.
func NewSingle(cfg SingleConfig) (*Single, error) {
	netCfg := cfg.Net
	netCfg.Workers = parallel.ShareN(cfg.Workers, 1)[0]
	topo := allreduce.LocalTopologies(1, 0, allreduce.NetConfig{})[0]
	return mirrored.NewRank(topo, netCfg, cfg.Loss, cfg.Optimizer, cfg.LR, false)
}
