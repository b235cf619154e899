package raysgd

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mirrored"
	"repro/internal/msd"
	"repro/internal/train"
	"repro/internal/unet"
	"repro/internal/volume"
)

func tinyNet() unet.Config {
	return unet.Config{
		InChannels:  4,
		OutChannels: 1,
		BaseFilters: 2,
		Steps:       2,
		Kernel:      3,
		UpKernel:    2,
		Seed:        5,
	}
}

func testConfig(t *testing.T, gpus int) Config {
	t.Helper()
	cl, err := cluster.ForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cluster:         cl,
		GPUs:            gpus,
		Net:             tinyNet(),
		Loss:            "dice",
		Optimizer:       "sgd",
		BaseLR:          0.05,
		BatchPerReplica: 2,
		Seed:            1,
	}
}

func samples(t *testing.T, n int) []*volume.Sample {
	t.Helper()
	cfg := msd.Config{Cases: n, D: 8, H: 8, W: 8, Seed: 9}
	out := make([]*volume.Sample, n)
	for i := 0; i < n; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestRingLayoutFollowsNodes: the paper's three cases (§III-B.2) on 4-GPU
// nodes are one flat ring within a node (1–4 GPUs, the sequential case
// included) and groups of one node across nodes (8 and 32 GPUs).
func TestRingLayoutFollowsNodes(t *testing.T) {
	for gpus, want := range map[int]int{1: 0, 2: 0, 3: 0, 4: 0, 8: 4, 32: 4} {
		cl, err := cluster.ForGPUs(gpus)
		if err != nil {
			t.Fatal(err)
		}
		if got := groupSize(gpus, cl.GPUsPerNode); got != want {
			t.Fatalf("%d GPUs: group size %d, want %d", gpus, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Cluster = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil cluster must error")
	}
	cfg = testConfig(t, 2)
	cfg.GPUs = 3 // cluster sized for 2
	if _, err := New(cfg); err == nil {
		t.Fatal("too many GPUs must error")
	}
	cfg = testConfig(t, 2)
	cfg.BatchPerReplica = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero batch must error")
	}
}

func TestTrainerModeAndBatchScaling(t *testing.T) {
	tr, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.groupSize != 0 {
		t.Fatalf("2 GPUs on one node: group size %d, want the flat ring", tr.groupSize)
	}
	if tr.GlobalBatch() != 4 {
		t.Fatalf("global batch %d, want 2×2", tr.GlobalBatch())
	}
	// Paper's scaling rule: lr = base × GPUs.
	if lr := tr.Strategy().LR(); math.Abs(lr-0.1) > 1e-12 {
		t.Fatalf("lr %v, want 0.1", lr)
	}
}

// fit trains a fresh session of the trainer for the given epochs, with the
// report hook (when non-nil) as its per-epoch callback.
func fit(t *testing.T, tr *Trainer, trainSet, val []*volume.Sample, epochs int, report func(train.EpochStats) bool) (*train.EpochStats, error) {
	t.Helper()
	var cbs []train.Callback
	if report != nil {
		cbs = append(cbs, train.ReportFunc(report))
	}
	sess, err := tr.NewSession(epochs, cbs...)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Fit(trainSet, val)
}

func TestMultiNodeUsesHierarchicalReducerAndStaysInSync(t *testing.T) {
	tr, err := New(testConfig(t, 8)) // 2 nodes
	if err != nil {
		t.Fatal(err)
	}
	if tr.groupSize != 4 {
		t.Fatalf("8 GPUs on 4-GPU nodes: group size %d, want 4", tr.groupSize)
	}
	if _, err := fit(t, tr, samples(t, 16), nil, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !tr.Strategy().(*mirrored.Trainer).InSync() {
		t.Fatal("replicas diverged under hierarchical all-reduce")
	}
}

func TestFitTrainsAndReports(t *testing.T) {
	tr, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []train.EpochStats
	last, err := fit(t, tr, samples(t, 8), samples(t, 2), 3, func(s train.EpochStats) bool {
		epochs = append(epochs, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("reported %d epochs", len(epochs))
	}
	if last.Epoch != 2 {
		t.Fatalf("last epoch %d", last.Epoch)
	}
	// Global batch 4 over 8 samples with drop-remainder: 2 steps/epoch.
	if last.Steps != 2 {
		t.Fatalf("steps %d, want 2", last.Steps)
	}
	if last.ValDice < 0 || last.ValDice > 1 {
		t.Fatalf("dice %v", last.ValDice)
	}
	// Loss should not explode across epochs.
	if epochs[len(epochs)-1].MeanLoss > epochs[0].MeanLoss*1.5 {
		t.Fatalf("loss diverged: %v -> %v", epochs[0].MeanLoss, epochs[len(epochs)-1].MeanLoss)
	}
}

func TestFitEarlyStopViaCallback(t *testing.T) {
	tr, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	_, err = fit(t, tr, samples(t, 4), nil, 10, func(train.EpochStats) bool {
		count++
		return count < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("callback ran %d times, want 2", count)
	}
}

func TestFitErrors(t *testing.T) {
	tr, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fit(t, tr, nil, nil, 1, nil); err == nil {
		t.Fatal("empty training set must error")
	}
	// Batch larger than the dataset.
	if _, err := fit(t, tr, samples(t, 1), nil, 1, nil); err == nil {
		t.Fatal("global batch > dataset must error")
	}
}

func TestAugmentedFitRuns(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Flip = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainSet := samples(t, 4)
	if _, err := fit(t, tr, trainSet, nil, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Flipping must not mutate the caller's samples.
	fresh := samples(t, 4)
	for i := range trainSet {
		for j, v := range fresh[i].Input.Data() {
			if trainSet[i].Input.Data()[j] != v {
				t.Fatal("Fit mutated the training samples")
			}
		}
		for j, v := range fresh[i].Mask.Data() {
			if trainSet[i].Mask.Data()[j] != v {
				t.Fatal("Fit mutated the training masks")
			}
		}
	}
}
