// Package loss implements the segmentation losses from the paper: the soft
// Dice loss (the primary training loss), its quadratic variant, and binary
// cross-entropy as an auxiliary baseline.
//
// All losses consume a prediction tensor of per-voxel probabilities and a
// ground-truth mask of the same shape, and return both the scalar loss and
// the gradient of the loss with respect to the prediction.
package loss

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Loss computes a scalar objective and its gradient w.r.t. the prediction.
type Loss interface {
	// Eval returns L(pred, target) and dL/dpred.
	Eval(pred, target *tensor.Tensor) (float64, *tensor.Tensor)
	Name() string
}

// Dice is the soft Dice loss of the paper:
//
//	L = 1 − (2·Σ ŷ·y + ε) / (Σ ŷ + Σ y + ε)
//
// with ε a small constant avoiding division by zero (paper: 0.1).
type Dice struct {
	Epsilon float64
}

// NewDice returns the paper's Dice loss with ε = 0.1.
func NewDice() *Dice { return &Dice{Epsilon: 0.1} }

// Name implements Loss.
func (d *Dice) Name() string { return "dice" }

// Eval implements Loss.
func (d *Dice) Eval(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	checkShapes("dice", pred, target)
	p := pred.Data()
	t := target.Data()
	var inter, sumP, sumT float64
	for i := range p {
		inter += float64(float64(p[i]) * float64(t[i]))
		sumP += float64(p[i])
		sumT += float64(t[i])
	}
	num := 2*inter + d.Epsilon
	den := sumP + sumT + d.Epsilon
	l := 1 - num/den

	// dL/dp_i = −(2·t_i·den − num) / den²
	grad := tensor.New(pred.Shape()...)
	g := grad.Data()
	den2 := den * den
	for i := range p {
		g[i] = float32(-(float64(2*float64(t[i])*den) - num) / den2)
	}
	return l, grad
}

// QuadraticDice is the quadratic soft Dice variant following V-Net
// (Milletari et al.), which the paper tested and found to validate worse:
//
//	L = 1 − (2·Σ ŷ·y + ε) / (Σ ŷ² + Σ y² + ε)
type QuadraticDice struct {
	Epsilon float64
}

// NewQuadraticDice returns the quadratic soft Dice loss with ε = 0.1.
func NewQuadraticDice() *QuadraticDice { return &QuadraticDice{Epsilon: 0.1} }

// Name implements Loss.
func (d *QuadraticDice) Name() string { return "quadratic-dice" }

// Eval implements Loss.
func (d *QuadraticDice) Eval(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	checkShapes("quadratic-dice", pred, target)
	p := pred.Data()
	t := target.Data()
	var inter, sumP2, sumT2 float64
	for i := range p {
		inter += float64(float64(p[i]) * float64(t[i]))
		sumP2 += float64(float64(p[i]) * float64(p[i]))
		sumT2 += float64(float64(t[i]) * float64(t[i]))
	}
	num := 2*inter + d.Epsilon
	den := sumP2 + sumT2 + d.Epsilon
	l := 1 - num/den

	// dL/dp_i = −(2·t_i·den − num·2·p_i) / den²
	grad := tensor.New(pred.Shape()...)
	g := grad.Data()
	den2 := den * den
	for i := range p {
		g[i] = float32(-(float64(2*float64(t[i])*den) - float64(num*2*float64(p[i]))) / den2)
	}
	return l, grad
}

// BCE is the mean binary cross-entropy, provided as a comparison loss.
type BCE struct {
	Epsilon float64 // probability clamp to avoid log(0)
}

// NewBCE returns a binary cross-entropy loss with clamp 1e-7.
func NewBCE() *BCE { return &BCE{Epsilon: 1e-7} }

// Name implements Loss.
func (b *BCE) Name() string { return "bce" }

// Eval implements Loss.
func (b *BCE) Eval(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	checkShapes("bce", pred, target)
	p := pred.Data()
	t := target.Data()
	n := float64(len(p))
	grad := tensor.New(pred.Shape()...)
	g := grad.Data()
	var l float64
	for i := range p {
		pi := math.Min(math.Max(float64(p[i]), b.Epsilon), 1-b.Epsilon)
		ti := float64(t[i])
		l += -(float64(ti*math.Log(pi)) + float64((1-ti)*math.Log(1-pi)))
		g[i] = float32((pi - ti) / (pi * (1 - pi)) / n)
	}
	return l / n, grad
}

// ByName returns the loss registered under name ("dice", "quadratic-dice",
// or "bce"); it is used to translate hyper-parameter configurations into
// loss instances.
func ByName(name string) (Loss, error) {
	switch name {
	case "dice":
		return NewDice(), nil
	case "quadratic-dice":
		return NewQuadraticDice(), nil
	case "bce":
		return NewBCE(), nil
	}
	return nil, fmt.Errorf("loss: unknown loss %q", name)
}

func checkShapes(name string, pred, target *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("loss: %s shape mismatch %v vs %v", name, pred.Shape(), target.Shape()))
	}
}
