// Package mirrored implements synchronous data parallelism with real
// gradient mathematics, the analogue of tf.MirroredStrategy. The step is
// written once, as a Rank: forward and backward on the rank's shard of the
// global batch, an all-reduce average of the flattened gradients over an
// allreduce.Topology, and an identical optimizer update, so replicas stay
// bit-for-bit synchronized. A Trainer runs R ranks in this process
// (goroutines standing in for GPUs) over allreduce.LocalTopologies; the
// dist package runs one rank per process over TCP. The paper's
// batch/learning-rate scaling rule (batch 2 per replica, lr = base ×
// replicas) is applied by the constructors.
package mirrored

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Config describes a mirrored training setup.
type Config struct {
	Replicas  int
	Net       unet.Config
	Loss      string  // "dice", "quadratic-dice", "bce"
	Optimizer string  // "adam", "sgd"
	BaseLR    float64 // scaled by Replicas per the paper's rule
	ScaleLR   bool    // apply the linear scaling rule (paper: yes)

	// Workers is the total compute-worker budget for the whole trainer
	// (0 = the parallel package default, i.e. all cores). It is divided
	// evenly among the replicas — each replica goroutine already stands in
	// for one GPU, so replicas sharing the budget keeps a step at ~Workers
	// cores instead of oversubscribing Replicas × Workers.
	Workers int

	// GroupSize is the number of replicas per node. 0 (or ≥ Replicas) is
	// the flat ring; otherwise the gradients are reduced hierarchically —
	// within each node, across node leaders, then broadcast back — as the
	// multi-node layer runs them.
	GroupSize int
}

// Trainer drives R ranks of the data-parallel step in this process.
type Trainer struct {
	cfg     Config
	ranks   []*Rank
	workers int // rank 0's share of the worker budget
}

// New builds a trainer with identically initialized replicas.
func New(cfg Config) (*Trainer, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("mirrored: Replicas must be ≥ 1, got %d", cfg.Replicas)
	}
	// ShareN distributes the budget remainder, so a 7-core budget over two
	// replicas runs 4+3 instead of 3+3 with a core idle. Unequal shares are
	// safe: kernel results are bit-for-bit independent of the worker count,
	// so replicas stay synchronized regardless of their share.
	shares := parallel.ShareN(cfg.Workers, cfg.Replicas)
	t := &Trainer{cfg: cfg, workers: shares[0]}
	for r, topo := range allreduce.LocalTopologies(cfg.Replicas, cfg.GroupSize, allreduce.NetConfig{}) {
		netCfg := cfg.Net // same seed → identical weights
		netCfg.Workers = shares[r]
		rank, err := NewRank(topo, netCfg, cfg.Loss, cfg.Optimizer, cfg.BaseLR, cfg.ScaleLR)
		if err != nil {
			return nil, err
		}
		t.ranks = append(t.ranks, rank)
	}
	return t, nil
}

// Replicas returns the replica count.
func (t *Trainer) Replicas() int { return len(t.ranks) }

// SetPhaseObserver implements train.PhaseReporter: fn receives rank 0's
// forward/backward/allreduce/optim durations each step (representative —
// the ranks run identical shapes). Rank 0's allreduce phase includes its
// wait for the slowest replica. Not synchronized with Step — install it
// before training starts.
func (t *Trainer) SetPhaseObserver(fn func(phase string, d time.Duration)) {
	t.ranks[0].SetPhaseObserver(fn)
}

// LR returns the effective (possibly scaled) learning rate.
func (t *Trainer) LR() float64 { return t.ranks[0].LR() }

// SetLR updates every replica's learning rate (for schedules).
func (t *Trainer) SetLR(lr float64) {
	for _, r := range t.ranks {
		r.SetLR(lr)
	}
}

// Model returns replica 0's network (all replicas are identical).
func (t *Trainer) Model() *unet.UNet { return t.ranks[0].model }

// ExportOptimState returns replica 0's optimizer state for checkpointing.
// Synchronous SGD keeps the replicas bitwise identical, so one replica's
// state describes them all.
func (t *Trainer) ExportOptimState() (map[string][]float64, error) {
	return t.ranks[0].ExportOptimState()
}

// ImportOptimState restores checkpointed optimizer state into every
// replica, re-establishing the bitwise synchronization invariant.
func (t *Trainer) ImportOptimState(state map[string][]float64) error {
	for _, r := range t.ranks {
		if err := r.ImportOptimState(state); err != nil {
			return err
		}
	}
	return nil
}

// BroadcastParams copies replica 0's parameter values and auxiliary state
// (batch-norm running statistics) bitwise into every other replica. A
// checkpoint loader writes into replica 0 (the Model()) and then broadcasts
// so all replicas resume in sync.
func (t *Trainer) BroadcastParams() {
	ref := t.Model()
	refParams, refAux := ref.Params(), ref.AuxState()
	for _, r := range t.ranks[1:] {
		for i, p := range r.model.Params() {
			copy(p.Value.Data(), refParams[i].Value.Data())
		}
		for k, v := range r.model.AuxState() {
			copy(v, refAux[k])
		}
	}
}

// Step runs one synchronous data-parallel step on a global batch
// ([N, C, D, H, W] inputs, [N, 1, D, H, W] masks): every rank's Step,
// concurrently. N must be divisible by the replica count. It returns the
// rank-ordered mean replica loss.
func (t *Trainer) Step(inputs, masks *tensor.Tensor) (float64, error) {
	losses := make([]float64, len(t.ranks))
	errs := make([]error, len(t.ranks))
	var wg sync.WaitGroup
	for i, r := range t.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			losses[i], errs[i] = r.Step(inputs, masks)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return losses[0], nil
}

// Evaluate computes the mean hard Dice score of the current model's Infer
// over a validation batch.
func (t *Trainer) Evaluate(inputs, masks *tensor.Tensor) float64 {
	// The other replicas are idle during evaluation, so replica 0 may use
	// the trainer's whole worker budget instead of its training share.
	m := t.Model()
	m.SetWorkers(parallel.Resolve(t.cfg.Workers))
	defer m.SetWorkers(t.workers)
	return t.ranks[0].Evaluate(inputs, masks)
}

// InSync reports whether all replicas hold bitwise-identical parameters;
// synchronous SGD must keep this invariant after every step.
func (t *Trainer) InSync() bool {
	h := paramHash64(t.Model())
	for _, r := range t.ranks[1:] {
		if paramHash64(r.model) != h {
			return false
		}
	}
	return true
}
