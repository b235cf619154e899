package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tune"
)

// smallOptions keeps real training fast: 4 configs, tiny volumes.
func smallOptions(strategy Strategy, gpus int) Options {
	opts := DefaultOptions()
	opts.Strategy = strategy
	opts.GPUs = gpus
	space, err := tune.NewSpace(
		tune.Grid("lr", 0.01, 0.05),
		tune.Grid("loss", "dice"),
		tune.Grid("optimizer", "sgd"),
		tune.Grid("augment", "none", "flip"),
	)
	if err != nil {
		panic(err)
	}
	opts.Space = space
	opts.Epochs = 1
	opts.MaxTrainCases = 4
	opts.MaxValCases = 1
	return opts
}

func TestRunValidation(t *testing.T) {
	opts := smallOptions(StrategyData, 1)
	opts.Strategy = "banana"
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown strategy must error")
	}
	opts = smallOptions(StrategyData, 1)
	opts.GPUs = 0
	if _, err := Run(opts); err == nil {
		t.Fatal("0 GPUs must error")
	}
	opts = smallOptions(StrategyData, 1)
	opts.Epochs = 0
	if _, err := Run(opts); err == nil {
		t.Fatal("0 epochs must error")
	}
	opts = smallOptions(StrategyData, 1)
	opts.Space = nil
	if _, err := Run(opts); err == nil {
		t.Fatal("nil space must error")
	}
}

func TestRunDataParallelStrategy(t *testing.T) {
	res, err := Run(smallOptions(StrategyData, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyData || res.GPUs != 2 {
		t.Fatalf("result header %+v", res)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("trials %d, want 4", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if tr.Err != nil {
			t.Fatalf("trial failed: %v", tr.Err)
		}
		if tr.Dice < 0 || tr.Dice > 1 {
			t.Fatalf("dice %v", tr.Dice)
		}
	}
	if res.Best == nil {
		t.Fatal("no best config")
	}
}

func TestRunExperimentParallelStrategy(t *testing.T) {
	res, err := Run(smallOptions(StrategyExperiment, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("trials %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if tr.Err != nil {
			t.Fatalf("trial failed: %v", tr.Err)
		}
		if tr.Status != "TERMINATED" {
			t.Fatalf("status %s", tr.Status)
		}
	}
	if res.Best == nil {
		t.Fatal("no best config")
	}
}

func TestBothStrategiesExploreSameSpace(t *testing.T) {
	// Figure 1: the two pipelines differ only in distribution; the set of
	// experiments is identical. Data parallelism on one GPU and experiment
	// parallelism on two both run trials of width 1, so each trial trains
	// the same single-replica model and must score the same Dice bit for
	// bit — the best epoch's, on both sides.
	mk := func(strategy Strategy, gpus int) Options {
		opts := smallOptions(strategy, gpus)
		opts.Epochs = 2
		return opts
	}
	data, err := Run(mk(StrategyData, 1))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Run(mk(StrategyExperiment, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Trials) != len(exp.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(data.Trials), len(exp.Trials))
	}
	// Trials are sorted deterministically, so configs must match pairwise.
	for i := range data.Trials {
		for _, k := range []string{"lr", "loss", "optimizer", "augment"} {
			if data.Trials[i].Config[k] != exp.Trials[i].Config[k] {
				t.Fatalf("trial %d differs on %s", i, k)
			}
		}
		if d, e := data.Trials[i].Dice, exp.Trials[i].Dice; math.Float64bits(d) != math.Float64bits(e) {
			t.Errorf("trial %v: data dice %v (%#x) != experiment dice %v (%#x)",
				data.Trials[i].Config, d, math.Float64bits(d), e, math.Float64bits(e))
		}
	}
}

func TestAugmentDoublesTrainingSet(t *testing.T) {
	// Smoke: the flip axis must not break training and must change results
	// (different gradient stream).
	opts := smallOptions(StrategyData, 1)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var none, flip float64
	for _, tr := range res.Trials {
		if tr.Config.Float("lr") != 0.01 {
			continue
		}
		switch tr.Config.Str("augment") {
		case "none":
			none = tr.Dice
		case "flip":
			flip = tr.Dice
		}
	}
	if none == 0 && flip == 0 {
		t.Fatal("expected both augment variants in trials")
	}
}

func TestDefaultOptionsRunnable(t *testing.T) {
	if DefaultOptions().Space.Size() != 32 {
		t.Fatal("default space should be the paper's 32-experiment grid")
	}
}

// scrape reads one sample from the process-wide registry's Prometheus page;
// a family nothing has registered reads as 0.
func scrape(t *testing.T, series string) float64 {
	t.Helper()
	var page bytes.Buffer
	if err := telemetry.WriteText(&page, telemetry.Default()); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	return 0
}

// TestRunFeedsTrainTelemetry: every campaign step, under either strategy,
// is counted in the train_* metric families the README catalogues —
// train_steps_total and the forward-phase histogram both rise by the
// campaign's optimizer-step count.
func TestRunFeedsTrainTelemetry(t *testing.T) {
	for _, strategy := range []Strategy{StrategyData, StrategyExperiment} {
		t.Run(string(strategy), func(t *testing.T) {
			opts := smallOptions(strategy, 2)
			width := 1
			if strategy == StrategyData {
				width = opts.GPUs
			}
			// Batches drop their remainder; augmentation keeps the set size.
			want := float64(opts.Space.Size() * opts.Epochs * (opts.MaxTrainCases / (opts.BatchPerReplica * width)))
			const forward = `train_phase_ns_count{phase="forward"}`
			steps0, fwd0 := scrape(t, "train_steps_total"), scrape(t, forward)
			if _, err := Run(opts); err != nil {
				t.Fatal(err)
			}
			if got := scrape(t, "train_steps_total") - steps0; got != want {
				t.Errorf("train_steps_total rose by %v, want %v", got, want)
			}
			if got := scrape(t, forward) - fwd0; got != want {
				t.Errorf("%s rose by %v, want %v", forward, got, want)
			}
		})
	}
}
