package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConfusionCounts(t *testing.T) {
	pred := tensor.FromSlice([]float32{0.9, 0.9, 0.1, 0.1}, 4)
	target := tensor.FromSlice([]float32{1, 0, 1, 0}, 4)
	c := Confuse(pred, target, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("got %+v", c)
	}
}

func TestDicePerfect(t *testing.T) {
	y := tensor.FromSlice([]float32{1, 0, 1, 1}, 4)
	if d := DiceScore(y.Clone(), y); d != 1 {
		t.Fatalf("perfect dice %v", d)
	}
}

func TestDiceDisjoint(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 1, 0, 0}, 4)
	target := tensor.FromSlice([]float32{0, 0, 1, 1}, 4)
	if d := DiceScore(pred, target); d != 0 {
		t.Fatalf("disjoint dice %v", d)
	}
}

func TestDiceBothEmpty(t *testing.T) {
	if d := DiceScore(tensor.New(4), tensor.New(4)); d != 1 {
		t.Fatalf("both-empty dice defined as 1, got %v", d)
	}
}

func TestDiceKnownOverlap(t *testing.T) {
	// |A|=2, |B|=3, |A∩B|=2 → dice = 2·2/(2+3) = 0.8
	pred := tensor.FromSlice([]float32{1, 1, 0, 0}, 4)
	target := tensor.FromSlice([]float32{1, 1, 1, 0}, 4)
	if d := DiceScore(pred, target); math.Abs(d-0.8) > 1e-12 {
		t.Fatalf("dice %v, want 0.8", d)
	}
}

func TestDegenerateConventions(t *testing.T) {
	c := Confusion{TN: 10}
	if c.Dice() != 1 {
		t.Fatalf("empty-positive conventions broken: %+v", c)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Confuse(tensor.New(2), tensor.New(3), 0.5)
}

// Property: dice is symmetric in prediction and target for binary masks.
func TestPropertyDiceSymmetry(t *testing.T) {
	f := func(a, b uint16) bool {
		pred := tensor.New(16)
		target := tensor.New(16)
		for i := 0; i < 16; i++ {
			if a&(1<<i) != 0 {
				pred.Data()[i] = 1
			}
			if b&(1<<i) != 0 {
				target.Data()[i] = 1
			}
		}
		return math.Abs(DiceScore(pred, target)-DiceScore(target, pred)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dice is always within [0, 1] and equals 2·IoU/(1+IoU).
func TestPropertyDiceIoURelation(t *testing.T) {
	f := func(a, b uint16) bool {
		pred := tensor.New(16)
		target := tensor.New(16)
		for i := 0; i < 16; i++ {
			if a&(1<<i) != 0 {
				pred.Data()[i] = 1
			}
			if b&(1<<i) != 0 {
				target.Data()[i] = 1
			}
		}
		c := Confuse(pred, target, 0.5)
		d := c.Dice()
		iou := 1.0 // the Jaccard index TP/(TP+FP+FN), 1 when both are empty
		if den := c.TP + c.FP + c.FN; den > 0 {
			iou = float64(c.TP) / float64(den)
		}
		if d < 0 || d > 1 {
			return false
		}
		return math.Abs(d-2*iou/(1+iou)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDriftHandComputed(t *testing.T) {
	// Positive sets after binarization at 0.5: pred {0, 2}, prior {0, 1}.
	// |A∩B| = 1, Dice = 2·1/(2+2) = 0.5, Drift = 0.5.
	pred := tensor.FromSlice([]float32{0.9, 0.2, 0.7, 0.1}, 4)
	prior := tensor.FromSlice([]float32{0.8, 0.6, 0.1, 0.2}, 4)
	if d := Drift(pred, prior); d != 0.5 {
		t.Fatalf("drift = %v, want 0.5", d)
	}
	// pred {0, 1, 3}, prior {1}: Dice = 2·1/(3+1) = 0.5, Drift = 0.5.
	pred = tensor.FromSlice([]float32{1, 1, 0, 1}, 4)
	prior = tensor.FromSlice([]float32{0, 1, 0, 0}, 4)
	if d := Drift(pred, prior); d != 0.5 {
		t.Fatalf("drift = %v, want 0.5", d)
	}
}

func TestDriftExtremes(t *testing.T) {
	same := tensor.FromSlice([]float32{1, 0, 1, 1}, 4)
	if d := Drift(same.Clone(), same); d != 0 {
		t.Fatalf("identical maps drift %v, want 0", d)
	}
	a := tensor.FromSlice([]float32{1, 1, 0, 0}, 4)
	b := tensor.FromSlice([]float32{0, 0, 1, 1}, 4)
	if d := Drift(a, b); d != 1 {
		t.Fatalf("disjoint maps drift %v, want 1", d)
	}
	// Both all-background: Dice is defined as 1, so drift is 0 — a model
	// that keeps predicting nothing on the probe has not drifted.
	if d := Drift(tensor.New(4), tensor.New(4)); d != 0 {
		t.Fatalf("both-empty drift %v, want 0", d)
	}
}

func TestDriftSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a := tensor.New(32)
		b := tensor.New(32)
		for i := range a.Data() {
			a.Data()[i] = rng.Float32()
			b.Data()[i] = rng.Float32()
		}
		if da, db := Drift(a, b), Drift(b, a); da != db {
			t.Fatalf("trial %d: Drift(a,b)=%v != Drift(b,a)=%v", trial, da, db)
		}
	}
}
