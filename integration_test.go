// Integration tests exercising the whole stack end to end: the E7
// correctness reference (real training to the paper's Dice band), the full
// NIfTI → TFRecord → pipeline → training data path, and cross-strategy
// consistency of the hyper-parameter search.
package repro

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mirrored"
	"repro/internal/msd"
	"repro/internal/patch"
	"repro/internal/raysgd"
	"repro/internal/record"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/tune"
	"repro/internal/unet"
	"repro/internal/volume"
)

// phantoms builds preprocessed samples for a range of case indices.
func phantoms(t *testing.T, cfg msd.Config, lo, hi, minDiv int) []*volume.Sample {
	t.Helper()
	out := make([]*volume.Sample, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), minDiv)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestTrainingReachesReferenceDice is the E7 experiment: real data-parallel
// training of a 3D U-Net on brain phantoms must reach the paper's reported
// Dice score of 0.89 on held-out validation cases.
func TestTrainingReachesReferenceDice(t *testing.T) {
	if testing.Short() {
		t.Skip("real training takes ~1 minute; skipped in -short")
	}
	cfg := msd.Config{Cases: 20, D: 16, H: 16, W: 16, Seed: 3}
	trainSet := phantoms(t, cfg, 0, 16, 4)
	val := phantoms(t, cfg, 16, 20, 4)

	net := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 3, Kernel: 3, UpKernel: 2, Seed: 2}
	cl, err := cluster.ForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := raysgd.New(raysgd.Config{
		Cluster:         cl,
		GPUs:            2,
		Net:             net,
		Loss:            "dice",
		Optimizer:       "adam",
		BaseLR:          0.75e-3, // ×2 replicas = 1.5e-3, the paper's scaling rule
		BatchPerReplica: 2,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.89
	best := 0.0
	sess, err := tr.NewSession(60, train.ReportFunc(func(s train.EpochStats) bool {
		if s.ValDice > best {
			best = s.ValDice
		}
		return best < target
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(trainSet, val); err != nil {
		t.Fatal(err)
	}
	if best < target {
		t.Fatalf("validation Dice %.4f below the paper's reference %.2f", best, target)
	}
	if !tr.Strategy().(*mirrored.Trainer).InSync() {
		t.Fatal("replicas diverged during the full training run")
	}
}

// TestEndToEndDataPath drives the complete ingestion path the paper
// describes: phantom generation → NIfTI on disk → load → preprocess →
// offline TFRecord binarization → decode → train one epoch.
func TestEndToEndDataPath(t *testing.T) {
	dir := t.TempDir()
	ds, err := msd.Generate(msd.Config{Cases: 6, D: 8, H: 8, W: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteNIfTI(dir); err != nil {
		t.Fatal(err)
	}
	names, err := msd.ListCases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("found %d cases", len(names))
	}

	// Offline binarization from the on-disk NIfTI files.
	var samples []*volume.Sample
	for _, n := range names {
		v, err := msd.LoadCase(dir, n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := volume.Preprocess(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	recPath := filepath.Join(dir, "train.tfrecord")
	f, err := os.Create(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.WriteSamples(f, samples); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Decode and train one epoch on the binarized samples.
	rf, err := os.Open(recPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	decoded, err := record.ReadSamples(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(samples) {
		t.Fatalf("decoded %d of %d samples", len(decoded), len(samples))
	}

	cl, err := cluster.ForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	net := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 8}
	tr, err := raysgd.New(raysgd.Config{
		Cluster: cl, GPUs: 2, Net: net,
		Loss: "dice", Optimizer: "adam", BaseLR: 1e-3, BatchPerReplica: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tr.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sess.Fit(decoded[:4], decoded[4:])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 1 {
		t.Fatalf("expected 1 step (global batch 4 over 4 samples), got %d", stats.Steps)
	}
}

// TestStrategiesAgreeOnBestConfig runs the same tiny search under both
// distribution strategies; with identical seeds and trial sets they must
// crown the same winning configuration.
func TestStrategiesAgreeOnBestConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 8 tiny models; skipped in -short")
	}
	mk := func(strategy core.Strategy, gpus int) core.Options {
		opts := core.DefaultOptions()
		opts.Strategy = strategy
		opts.GPUs = gpus
		space, err := tune.NewSpace(
			tune.Grid("lr", 0.002, 0.02),
			tune.Grid("loss", "dice", "quadratic-dice"),
			tune.Grid("optimizer", "adam"),
		)
		if err != nil {
			t.Fatal(err)
		}
		opts.Space = space
		opts.Epochs = 2
		opts.MaxTrainCases = 4
		opts.MaxValCases = 2
		return opts
	}
	data, err := core.Run(mk(core.StrategyData, 1))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.Run(mk(core.StrategyExperiment, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Every experiment trains with GPUs-independent seeds in experiment
	// mode (1 GPU each) vs data mode (1 GPU here too), so dice values and
	// therefore the winner must coincide.
	if data.Best.Float("lr") != exp.Best.Float("lr") || data.Best.Str("loss") != exp.Best.Str("loss") {
		t.Fatalf("strategies disagree: data %v vs exp %v (dice %.4f vs %.4f)",
			data.Best, exp.Best, data.BestDice, exp.BestDice)
	}
}

// TestCheckpointResumeMidTraining verifies the seam under the tune-style
// pause/resume contract: a raysgd trainer's model checkpointed after two
// epochs loads into a fresh trainer with every parameter and the session
// state it was saved with.
func TestCheckpointResumeMidTraining(t *testing.T) {
	cfg := msd.Config{Cases: 4, D: 8, H: 8, W: 8, Seed: 37}
	var trainSet []*volume.Sample
	for i := 0; i < 4; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		trainSet = append(trainSet, s)
	}
	net := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 8}
	cl, err := cluster.ForGPUs(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *raysgd.Trainer {
		tr, err := raysgd.New(raysgd.Config{
			Cluster: cl, GPUs: 1, Net: net,
			Loss: "dice", Optimizer: "sgd", BaseLR: 0.05, BatchPerReplica: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := mk()
	sess, err := a.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(trainSet, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := ckpt.SaveFile(path, a.Strategy().Model(), map[string][]float64{"epoch": {2}}); err != nil {
		t.Fatal(err)
	}

	b := mk()
	state, err := ckpt.LoadFile(path, b.Strategy().Model())
	if err != nil {
		t.Fatal(err)
	}
	if e := state["epoch"]; len(e) != 1 || e[0] != 2 {
		t.Fatalf("state %v", state)
	}
	// The restored model must match the saved one parameter-for-parameter.
	pa, pb := a.Strategy().Model().Params(), b.Strategy().Model().Params()
	for i := range pa {
		if tensor.MaxAbsDiff(pa[i].Value, pb[i].Value) != 0 {
			t.Fatalf("param %s differs after restore", pa[i].Name)
		}
	}
}

// TestPaperModelMemoryStory ties the model to the analytic cluster model:
// the paper-scale U-Net must have the parameter count the analytic model
// uses (asserted in experiments' tests; revalidated here at the seam).
func TestPaperModelMemoryStory(t *testing.T) {
	u := unet.MustNew(unet.PaperConfig())
	if u.ParamCount() != 409657 {
		t.Fatalf("param count %d", u.ParamCount())
	}
}

// TestFullVolumeBeatsPatchesAtEqualSteps is the comparison behind the
// paper's full-volume design (§I, §II-A.1): patches save memory but lose
// spatial context. Two identical U-Nets train for the same number of Adam
// steps, one on full 16³ volumes and one on random 8³ patches, and both are
// scored by full-volume validation Dice (the patch model through
// sliding-window inference). On a run this small one step count is a noisy
// reading: either model's validation Dice swings by up to ±0.1 between
// neighbouring step counts, and patches come out ahead at some of them
// (steps 150, 170 and 180 of a 260-step run). So both models are scored
// every 20 steps over the second half of training, and the test compares
// the means.
func TestFullVolumeBeatsPatchesAtEqualSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models for 160 steps; skipped in -short")
	}
	const (
		patchDim  = 8
		batch     = 2
		steps     = 160
		evalFrom  = steps / 2 // score at evalFrom, evalFrom+evalEvery, …, steps
		evalEvery = 20
		margin    = 0.03
	)
	cfg := msd.Config{Cases: 14, D: 16, H: 16, W: 16, Seed: 3}
	trainSet := phantoms(t, cfg, 0, 10, 4)
	val := phantoms(t, cfg, 10, 14, 4)
	netCfg := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 2}

	// meanDice trains on batches from next and returns the mean of score's
	// readings at the evaluation points.
	meanDice := func(name string, next func(rng *rand.Rand) []*volume.Sample, score func(*unet.UNet) float64) float64 {
		st, err := train.NewSingle(train.SingleConfig{Net: netCfg, Loss: "dice", Optimizer: "adam", LR: 2e-3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		var sum float64
		var readings []float64
		for step := 1; step <= steps; step++ {
			in, mask, err := volume.Batch(next(rng))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Step(in, mask); err != nil {
				t.Fatal(err)
			}
			if step >= evalFrom && (step-evalFrom)%evalEvery == 0 {
				d := score(st.Model())
				readings = append(readings, d)
				sum += d
			}
		}
		t.Logf("%s: validation Dice at steps %d, %d, … %d: %.4f", name, evalFrom, evalFrom+evalEvery, steps, readings)
		return sum / float64(len(readings))
	}

	full := meanDice("full volume", func(rng *rand.Rand) []*volume.Sample {
		out := make([]*volume.Sample, batch)
		for i := range out {
			out[i] = trainSet[rng.Intn(len(trainSet))]
		}
		return out
	}, func(m *unet.UNet) float64 {
		var dice float64
		for _, s := range val {
			pred := m.Infer(s.Input.Reshape(append([]int{1}, s.Input.Shape()...)...))
			dice += metrics.DiceScore(pred.Reshape(s.Mask.Shape()...), s.Mask)
		}
		return dice / float64(len(val))
	})

	prng := rand.New(rand.NewSource(77))
	sw := patch.SlidingWindow{
		Patch:  [3]int{patchDim, patchDim, patchDim},
		Stride: [3]int{patchDim / 2, patchDim / 2, patchDim / 2},
	}
	patched := meanDice("8³ patches", func(rng *rand.Rand) []*volume.Sample {
		ps, err := patch.RandomPatches(trainSet[rng.Intn(len(trainSet))], batch, patchDim, patchDim, patchDim, 0.7, prng)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}, func(m *unet.UNet) float64 {
		var dice float64
		for _, s := range val {
			pred, err := sw.Infer(m, s)
			if err != nil {
				t.Fatal(err)
			}
			dice += metrics.DiceScore(pred, s.Mask)
		}
		return dice / float64(len(val))
	})

	if full < patched+margin {
		t.Fatalf("mean validation Dice: full volume %.4f, 8³ patches %.4f; want full ahead by ≥ %.2f", full, patched, margin)
	}
}
