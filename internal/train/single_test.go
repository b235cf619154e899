package train

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/loss"
	"repro/internal/mirrored"
	"repro/internal/optim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

// TestSingleIsWidthOneStep: the sequential strategy and a one-replica
// mirrored trainer both run the data-parallel step at width 1, which must
// be exactly the plain step — ZeroGrads → Forward → Dice → Backward → Adam —
// with no gradient reduction: the same loss bits every step, the same
// parameters and running statistics, no allreduce phase reported and no
// all-reduce payload counted.
func TestSingleIsWidthOneStep(t *testing.T) {
	const lr, steps = 0.01, 3
	data := samples(t, 2*steps)
	batch := func(i int) (in, mask *tensor.Tensor) {
		in, mask, err := volume.Batch(data[2*i : 2*i+2])
		if err != nil {
			t.Fatal(err)
		}
		return in, mask
	}

	ref := unet.MustNew(tinyNet())
	refLoss, refOpt := loss.NewDice(), optim.NewAdam(lr)
	var want []float64
	for i := 0; i < steps; i++ {
		in, mask := batch(i)
		ref.ZeroGrads()
		l, grad := refLoss.Eval(ref.Forward(in), mask)
		ref.Backward(grad)
		refOpt.Step(ref.Params())
		want = append(want, l)
	}

	single, err := NewSingle(SingleConfig{Net: tinyNet(), Loss: "dice", Optimizer: "adam", LR: lr})
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := mirrored.New(mirrored.Config{
		Replicas: 1, Net: tinyNet(), Loss: "dice", Optimizer: "adam", BaseLR: lr, ScaleLR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := telemetry.Default().CounterVec("allreduce_payload_raw_bytes_total", "", "codec", "none").With("none")
	for name, strat := range map[string]Strategy{"Single": single, "1-replica Trainer": trainer} {
		var phases []string
		strat.(PhaseReporter).SetPhaseObserver(func(phase string, _ time.Duration) { phases = append(phases, phase) })
		raw0 := raw.Value()
		for i := 0; i < steps; i++ {
			l, err := strat.Step(batch(i))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(l) != math.Float64bits(want[i]) {
				t.Fatalf("%s step %d: loss %v, want %v", name, i, l, want[i])
			}
		}
		if got, want := mirrored.ParamHash(strat.Model()), mirrored.ParamHash(ref); got != want {
			t.Fatalf("%s: param hash %s, want %s", name, got, want)
		}
		if fingerprint(strat.Model()) != fingerprint(ref) {
			t.Fatalf("%s: batch-norm running statistics differ from the plain step", name)
		}
		wantPhases := slices.Repeat([]string{"forward", "backward", "optim"}, steps)
		if !slices.Equal(phases, wantPhases) {
			t.Fatalf("%s: phases %v, want %v", name, phases, wantPhases)
		}
		if raw.Value() != raw0 {
			t.Fatalf("%s: width-1 steps counted %d all-reduce payload bytes", name, raw.Value()-raw0)
		}
	}
}
