// Package metrics implements the segmentation quality metric the paper
// reports, the Dice similarity coefficient (a.k.a. F1 / Sørensen-Dice), the
// Dice distance that tracks drift between served outputs, and a mean.
package metrics

import (
	"fmt"

	"repro/internal/tensor"
)

// Confusion holds binary voxel classification counts at a given threshold.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse thresholds pred at thr and compares against the binary target.
func Confuse(pred, target *tensor.Tensor, thr float32) Confusion {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("metrics: shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	p := pred.Data()
	t := target.Data()
	var c Confusion
	for i := range p {
		pos := p[i] >= thr
		truth := t[i] >= 0.5
		switch {
		case pos && truth:
			c.TP++
		case pos && !truth:
			c.FP++
		case !pos && truth:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Dice returns the Dice similarity coefficient 2TP/(2TP+FP+FN). If the
// prediction and ground truth are both empty the score is defined as 1.
func (c Confusion) Dice() float64 {
	den := 2*c.TP + c.FP + c.FN
	if den == 0 {
		return 1
	}
	return float64(2*c.TP) / float64(den)
}

// DiceScore is a convenience wrapper: binarize pred at 0.5 and return the
// Dice coefficient against target.
func DiceScore(pred, target *tensor.Tensor) float64 {
	return Confuse(pred, target, 0.5).Dice()
}

// Drift returns the symmetric Dice distance 1 − Dice between two
// probability maps, both binarized at 0.5: 0 when they segment identically,
// 1 when their positive regions are disjoint (and non-empty). The online
// continual-learning service samples it between consecutive served outputs
// on a probe volume — a rising drift gauge means the deployed model's
// behaviour is moving. Symmetric because both inputs go through the same
// threshold: Drift(a, b) == Drift(b, a).
func Drift(pred, prior *tensor.Tensor) float64 {
	return 1 - Confuse(pred, prior, 0.5).Dice()
}
