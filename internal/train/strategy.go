package train

import (
	"fmt"
	"time"

	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Strategy is the pluggable distribution strategy a Session drives: it owns
// the model replicas (or, for one member of a multi-process step, this
// process's replica) and applies one synchronous optimization step per
// global batch. mirrored.Trainer satisfies it (R replicas in one process,
// ring or hierarchical all-reduce), as do mirrored.Rank (one member of the
// same step, run by each dist worker over TCP) and Single below (the
// paper's sequential case). Implementations must keep Step deterministic
// for a fixed input — the checkpoint layer depends on replayed steps being
// bit-identical.
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
	// Models returns every replica network (cache hooks touch them all).
	Models() []*unet.UNet
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
	// InSync reports whether all replicas agree bitwise.
	InSync() bool
}

// SingleConfig describes a single-replica strategy.
type SingleConfig struct {
	Net       unet.Config
	Loss      string  // "dice", "quadratic-dice", "bce"
	Optimizer string  // "adam", "sgd"
	LR        float64 // applied as-is (no replica scaling: one replica)
	Workers   int     // compute-worker budget (0 = all cores)
}

// Single is the sequential strategy: one model, one optimizer, no gradient
// reduction. It is bit-for-bit equivalent to a one-replica mirrored trainer
// (averaging one gradient buffer is the identity) without the flatten/
// all-reduce/unflatten round trip.
type Single struct {
	model   *unet.UNet
	loss    loss.Loss
	opt     optim.Optimizer
	workers int

	phaseObs func(phase string, d time.Duration) // nil = no phase timing
}

// NewSingle builds the sequential strategy.
func NewSingle(cfg SingleConfig) (*Single, error) {
	netCfg := cfg.Net
	netCfg.Workers = parallel.ShareN(cfg.Workers, 1)[0]
	model, err := unet.New(netCfg)
	if err != nil {
		return nil, err
	}
	l, err := loss.ByName(cfg.Loss)
	if err != nil {
		return nil, err
	}
	opt, err := optim.ByName(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	return &Single{model: model, loss: l, opt: opt, workers: netCfg.Workers}, nil
}

// SetPhaseObserver implements PhaseReporter: fn receives exact
// forward/backward/optim durations for every subsequent step. Not
// synchronized with Step — install it before training starts.
func (s *Single) SetPhaseObserver(fn func(phase string, d time.Duration)) { s.phaseObs = fn }

// Step implements Strategy.
func (s *Single) Step(inputs, masks *tensor.Tensor) (float64, error) {
	if masks.Dim(0) != inputs.Dim(0) {
		return 0, fmt.Errorf("train: masks batch %d does not match inputs %d", masks.Dim(0), inputs.Dim(0))
	}
	if s.phaseObs == nil {
		s.model.ZeroGrads()
		pred := s.model.Forward(inputs)
		l, grad := s.loss.Eval(pred, masks)
		s.model.Backward(grad)
		s.opt.Step(s.model.Params())
		return l, nil
	}
	s.model.ZeroGrads()
	t0 := time.Now()
	pred := s.model.Forward(inputs)
	l, grad := s.loss.Eval(pred, masks)
	t1 := time.Now()
	s.phaseObs("forward", t1.Sub(t0))
	s.model.Backward(grad)
	t2 := time.Now()
	s.phaseObs("backward", t2.Sub(t1))
	s.opt.Step(s.model.Params())
	s.phaseObs("optim", time.Since(t2))
	return l, nil
}

// Evaluate implements Strategy.
func (s *Single) Evaluate(inputs, masks *tensor.Tensor) float64 {
	pred := s.model.Infer(inputs)
	defer tensor.Recycle(pred)
	return metrics.DiceScore(pred, masks)
}

// Model implements Strategy.
func (s *Single) Model() *unet.UNet { return s.model }

// Models implements Strategy.
func (s *Single) Models() []*unet.UNet { return []*unet.UNet{s.model} }

// Replicas implements Strategy.
func (s *Single) Replicas() int { return 1 }

// LR implements Strategy.
func (s *Single) LR() float64 { return s.opt.LR() }

// SetLR implements Strategy.
func (s *Single) SetLR(lr float64) { s.opt.SetLR(lr) }

// ExportOptimState implements Strategy.
func (s *Single) ExportOptimState() (map[string][]float64, error) {
	st, ok := s.opt.(optim.Stater)
	if !ok {
		return nil, fmt.Errorf("train: optimizer %q does not support state export", s.opt.Name())
	}
	return st.ExportState(s.model.Params())
}

// ImportOptimState implements Strategy.
func (s *Single) ImportOptimState(state map[string][]float64) error {
	st, ok := s.opt.(optim.Stater)
	if !ok {
		return fmt.Errorf("train: optimizer %q does not support state import", s.opt.Name())
	}
	return st.ImportState(s.model.Params(), state)
}

// BroadcastParams implements Strategy (no other replicas to reach).
func (s *Single) BroadcastParams() {}

// InSync implements Strategy (one replica is trivially synchronized).
func (s *Single) InSync() bool { return true }
