// Package optim implements the optimizers used by the paper: Adam with an
// initial learning rate of 1e-4 × #GPUs, plain SGD as a baseline, and the
// cyclic learning-rate schedule (Smith, WACV 2017) the paper applies to
// approximate the learning rate under data distribution.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients.
	Step(params []*nn.Param)
	// SetLR changes the current learning rate (used by schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	Name() string
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	lr       float64
	Momentum float64

	velocity map[*nn.Param][]float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum, velocity: make(map[*nn.Param][]float32)}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		v := p.Value.Data()
		g := p.Grad.Data()
		if s.Momentum == 0 {
			for i := range v {
				v[i] -= float32(float32(s.lr) * g[i])
			}
			continue
		}
		vel, ok := s.velocity[p]
		if !ok {
			vel = make([]float32, len(v))
			s.velocity[p] = vel
		}
		m := float32(s.Momentum)
		for i := range v {
			vel[i] = float32(m*vel[i]) + g[i]
			v[i] -= float32(float32(s.lr) * vel[i])
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) used by the paper.
type Adam struct {
	lr      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*nn.Param][]float32
	v map[*nn.Param][]float32
}

// NewAdam returns Adam with the canonical β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		lr:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*nn.Param][]float32),
		v:       make(map[*nn.Param][]float32),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		val := p.Value.Data()
		g := p.Grad.Data()
		m, ok := a.m[p]
		if !ok {
			m = make([]float32, len(val))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float32, len(val))
			a.v[p] = v
		}
		b1 := float32(a.Beta1)
		b2 := float32(a.Beta2)
		for i := range val {
			m[i] = float32(b1*m[i]) + float32((1-b1)*g[i])
			v[i] = float32(b2*v[i]) + float32((1-b2)*g[i]*g[i])
			mh := float64(m[i]) / c1
			vh := float64(v[i]) / c2
			val[i] -= float32(a.lr * mh / (math.Sqrt(vh) + a.Epsilon))
		}
	}
}

// Stater is implemented by optimizers whose internal state must survive a
// checkpoint/resume cycle for training to continue bit-identically. State is
// exchanged as named float64 slices: float32 internals are widened (exactly)
// so the checkpoint layer can store them as float64 bit patterns, and narrow
// back without loss on import.
type Stater interface {
	Optimizer
	// ExportState returns the optimizer's state keyed by slot name. The
	// params slice fixes naming and ordering; parameters the optimizer has
	// not yet touched export zero slots, so export is total.
	ExportState(params []*nn.Param) (map[string][]float64, error)
	// ImportState restores previously exported state. Keys the optimizer
	// does not own are ignored (checkpoints carry other namespaces);
	// missing or mis-sized slots are errors naming the parameter.
	ImportState(params []*nn.Param, state map[string][]float64) error
}

// widen copies a float32 slice to float64 (every float32 is exactly
// representable as float64, so this is bit-information preserving).
func widen(src []float32) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = float64(v)
	}
	return out
}

// narrow writes a float64 slice (produced by widen) back to float32.
func narrow(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// slotImport fetches state[key] and narrows it into a moment slice for p,
// with mismatch errors naming the parameter.
func slotImport(state map[string][]float64, key string, p *nn.Param, dst map[*nn.Param][]float32) error {
	vals, ok := state[key]
	if !ok {
		return fmt.Errorf("optim: state has no slot %q for parameter %q", key, p.Name)
	}
	if len(vals) != p.Value.Size() {
		return fmt.Errorf("optim: slot %q holds %d values, parameter %q needs %d",
			key, len(vals), p.Name, p.Value.Size())
	}
	buf, ok := dst[p]
	if !ok {
		buf = make([]float32, p.Value.Size())
		dst[p] = buf
	}
	narrow(buf, vals)
	return nil
}

// ExportState implements Stater: per-parameter velocity slots plus the
// current learning rate ("sgd.lr", exact as float64).
func (s *SGD) ExportState(params []*nn.Param) (map[string][]float64, error) {
	out := map[string][]float64{"sgd.lr": {s.lr}}
	for _, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("optim: cannot export state for unnamed parameter")
		}
		vel, ok := s.velocity[p]
		if !ok {
			vel = make([]float32, p.Value.Size())
		}
		out["sgd.v:"+p.Name] = widen(vel)
	}
	return out, nil
}

// ImportState implements Stater.
func (s *SGD) ImportState(params []*nn.Param, state map[string][]float64) error {
	lr, ok := state["sgd.lr"]
	if !ok || len(lr) != 1 {
		return fmt.Errorf("optim: state has no sgd learning rate (was the checkpoint written by a different optimizer?)")
	}
	for _, p := range params {
		if err := slotImport(state, "sgd.v:"+p.Name, p, s.velocity); err != nil {
			return err
		}
	}
	s.lr = lr[0]
	return nil
}

// ExportState implements Stater: first/second moment slots per parameter
// plus the shared step counter and learning rate.
func (a *Adam) ExportState(params []*nn.Param) (map[string][]float64, error) {
	out := map[string][]float64{
		"adam.t":  {float64(a.t)},
		"adam.lr": {a.lr},
	}
	for _, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("optim: cannot export state for unnamed parameter")
		}
		m, ok := a.m[p]
		if !ok {
			m = make([]float32, p.Value.Size())
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float32, p.Value.Size())
		}
		out["adam.m:"+p.Name] = widen(m)
		out["adam.v:"+p.Name] = widen(v)
	}
	return out, nil
}

// ImportState implements Stater.
func (a *Adam) ImportState(params []*nn.Param, state map[string][]float64) error {
	tv, ok := state["adam.t"]
	if !ok || len(tv) != 1 {
		return fmt.Errorf("optim: state has no adam step counter (was the checkpoint written by a different optimizer?)")
	}
	t := int(tv[0])
	if float64(t) != tv[0] || t < 0 {
		return fmt.Errorf("optim: adam step counter %v is not a non-negative integer", tv[0])
	}
	lr, ok := state["adam.lr"]
	if !ok || len(lr) != 1 {
		return fmt.Errorf("optim: state has no adam learning rate")
	}
	for _, p := range params {
		if err := slotImport(state, "adam.m:"+p.Name, p, a.m); err != nil {
			return err
		}
		if err := slotImport(state, "adam.v:"+p.Name, p, a.v); err != nil {
			return err
		}
	}
	a.t = t
	a.lr = lr[0]
	return nil
}

// ByName constructs an optimizer ("adam" or "sgd") with the given base
// learning rate; the hyper-parameter layer uses it to realize trial configs.
func ByName(name string, lr float64) (Optimizer, error) {
	switch name {
	case "adam":
		return NewAdam(lr), nil
	case "sgd":
		return NewSGD(lr, 0.9), nil
	}
	return nil, fmt.Errorf("optim: unknown optimizer %q", name)
}

// ScaleLRForReplicas implements the paper's linear scaling rule: the initial
// learning rate is multiplied by the number of replicas because the global
// batch grows with the replica count.
func ScaleLRForReplicas(base float64, replicas int) float64 {
	if replicas < 1 {
		replicas = 1
	}
	return base * float64(replicas)
}

// CyclicLR is the triangular cyclic learning-rate schedule (Smith 2017): the
// rate oscillates linearly between Base and Max with a half-cycle of
// StepSize optimizer steps, optionally decaying the amplitude each cycle.
type CyclicLR struct {
	Base     float64
	Max      float64
	StepSize int     // steps per half cycle
	Gamma    float64 // amplitude decay per cycle; 1 = constant amplitude
}

// NewCyclicLR returns a triangular schedule with no amplitude decay.
func NewCyclicLR(base, max float64, stepSize int) *CyclicLR {
	return &CyclicLR{Base: base, Max: max, StepSize: stepSize, Gamma: 1}
}

// At returns the learning rate at the given 0-based optimizer step.
func (c *CyclicLR) At(step int) float64 {
	if c.StepSize <= 0 {
		return c.Base
	}
	cycle := math.Floor(1 + float64(step)/float64(2*c.StepSize))
	x := math.Abs(float64(step)/float64(c.StepSize) - 2*cycle + 1)
	amp := c.Max - c.Base
	if c.Gamma != 1 {
		amp *= math.Pow(c.Gamma, cycle-1)
	}
	lr := c.Base + float64(amp*math.Max(0, 1-x))
	return lr
}

// Apply sets the optimizer's learning rate for the given step.
func (c *CyclicLR) Apply(opt Optimizer, step int) { opt.SetLR(c.At(step)) }
