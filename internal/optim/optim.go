// Package optim implements the optimizers used by the paper: Adam with an
// initial learning rate of 1e-4 × #GPUs, and plain SGD as a baseline.
package optim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients.
	Step(params []*nn.Param)
	// SetWorkers sets the worker budget Step runs on; 0 (the default)
	// means the parallel package's global default. The update of each
	// element is independent of every other, so the bits do not depend on
	// the budget.
	SetWorkers(workers int)
	// SetLR changes the current learning rate (used by schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	Name() string
}

// stepGrain is how many elements of the concatenated parameters one chunk
// of an update covers: a few microseconds of Adam's per-element work.
const stepGrain = 4096

// span is one parameter's slices of an update, at offset off in the
// concatenation of all of them.
type span struct {
	off       int
	val, grad []float32
	m, v      []float32 // the optimizer's state for the parameter, if any
}

// stepper runs an optimizer's element update on its worker budget. Its
// spans are rebuilt every step into the same backing, so a step allocates
// nothing for them.
type stepper struct {
	workers int
	spans   []span
}

// SetWorkers implements Optimizer.
func (s *stepper) SetWorkers(workers int) { s.workers = workers }

// update calls fn for every parameter's part of every chunk of the
// concatenated params, as one parallel region over all of them; [lo, hi)
// indexes the span. m and v (either may be nil) supply each span's state,
// created zeroed where a parameter has none yet.
func (s *stepper) update(params []*nn.Param, m, v map[*nn.Param][]float32, fn func(sp *span, lo, hi int)) {
	total := 0
	for _, p := range params {
		s.spans = append(s.spans, span{off: total, val: p.Value.Data(), grad: p.Grad.Data(),
			m: state(m, p), v: state(v, p)})
		total += p.Value.Size()
	}
	parallel.ForWorkers(s.workers, total, stepGrain, func(_, lo, hi int) {
		i := sort.Search(len(s.spans), func(i int) bool {
			return s.spans[i].off+len(s.spans[i].val) > lo
		})
		for ; lo < hi; i++ {
			sp := &s.spans[i]
			end := min(hi-sp.off, len(sp.val))
			fn(sp, lo-sp.off, end)
			lo = sp.off + end
		}
	})
	clear(s.spans) // keep no parameter alive
	s.spans = s.spans[:0]
}

// state returns p's slot in st, creating it zeroed; nil for a nil st.
func state(st map[*nn.Param][]float32, p *nn.Param) []float32 {
	if st == nil {
		return nil
	}
	s, ok := st[p]
	if !ok {
		s = make([]float32, p.Value.Size())
		st[p] = s
	}
	return s
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	stepper
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
	var vel map[*nn.Param][]float32
	if s.Momentum != 0 {
		vel = s.velocity
	}
	lr, m := float32(s.lr), float32(s.Momentum)
	s.update(params, vel, nil, func(sp *span, lo, hi int) {
		v, g := sp.val[lo:hi], sp.grad[lo:hi]
		if sp.m == nil {
			for i := range v {
				v[i] -= float32(lr * g[i])
			}
			return
		}
		vel := sp.m[lo:hi]
		for i := range v {
			vel[i] = float32(m*vel[i]) + g[i]
			v[i] -= float32(lr * vel[i])
		}
	})
}

// Adam is the Adam optimizer (Kingma & Ba) used by the paper.
type Adam struct {
	stepper
	lr      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t    int
	m    map[*nn.Param][]float32
	v    map[*nn.Param][]float32
	step adamStep // the running Step's constants
}

// adamStep is what one Adam step's element update reads besides the
// element: the moments' rates in float32, the bias corrections, the
// learning rate and ε in float64. The layout is the assembly's
// (adam_amd64.s).
type adamStep struct {
	b1, omb1, b2, omb2 float32 // β1, 1 − β1, β2, 1 − β2
	c1, c2, lr, eps    float64 // 1 − β1^t, 1 − β2^t
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

// Step implements Optimizer. Each span's leading multiple of 4 elements
// runs in AVX2 where it is live (adamVec), bit for bit adamGo, which does
// the rest.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	a.step = adamStep{b1: b1, omb1: 1 - b1, b2: b2, omb2: 1 - b2,
		c1: 1 - math.Pow(a.Beta1, float64(a.t)), c2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr: a.lr, eps: a.Epsilon}
	a.update(params, a.m, a.v, func(sp *span, lo, hi int) {
		val, g, m, v := sp.val[lo:hi], sp.grad[lo:hi], sp.m[lo:hi], sp.v[lo:hi]
		done := adamVec(val, g, m, v, &a.step)
		adamGo(val[done:], g[done:], m[done:], v[done:], &a.step)
	})
}

// adamGo is Adam's update of every element of val from its gradient and
// moments: every operation rounded where it is written, a product that is
// then added wrapped in a conversion so that no compiler fuses the two.
func adamGo(val, grad, m, v []float32, k *adamStep) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	for i, g := range grad {
		m[i] = float32(k.b1*m[i]) + float32(k.omb1*g)
		v[i] = float32(k.b2*v[i]) + float32(k.omb2*g*g)
		mh := float64(m[i]) / k.c1
		vh := float64(v[i]) / k.c2
		val[i] -= float32(k.lr * mh / (math.Sqrt(vh) + k.eps))
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
