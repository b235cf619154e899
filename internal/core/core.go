// Package core is the DistMIS facade: the paper's framework entry point that
// trains 3D medical image segmentation models on a multi-node multi-GPU
// cluster under either of the two distribution strategies. Both are one
// campaign on tune.Runner with a trial width w: data parallelism is w = W
// (each experiment on all W GPUs, one at a time), experiment parallelism is
// w = 1 (W one-GPU experiments at a time). Real mathematics runs end to end:
// phantom MSD-like volumes, preprocessing, the 3D U-Net, Dice losses, ring
// all-reduce and hyper-parameter search.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/msd"
	"repro/internal/raysgd"
	"repro/internal/train"
	"repro/internal/tune"
	"repro/internal/unet"
	"repro/internal/volume"
)

// Strategy selects the distribution approach of Figure 1.
type Strategy string

// The two distribution strategies of the paper.
const (
	StrategyData       Strategy = "data"
	StrategyExperiment Strategy = "experiment"
)

// Options configures a DistMIS run.
type Options struct {
	Strategy Strategy
	GPUs     int

	Net     unet.Config
	Dataset msd.Config
	Space   *tune.Space

	// Trials, when positive, runs only the first Trials configurations of
	// the sorted grid; 0 runs all of it.
	Trials int

	Epochs          int
	BatchPerReplica int
	Seed            int64

	// Workers is the machine-wide compute-worker budget (0 = all cores),
	// divided among the concurrently running trials: one data-parallel trial
	// gets all of it, W experiment-parallel trials a share each.
	Workers int

	// Scheduler optionally enables early stopping under either strategy
	// (nil = FIFO, the paper's behaviour).
	Scheduler tune.Scheduler

	// MaxTrainCases / MaxValCases cap the dataset for quick runs; 0 means
	// use the full split.
	MaxTrainCases int
	MaxValCases   int

	// CheckpointDir, when non-empty, makes the run a resumable campaign:
	// every trial checkpoints its session there after each epoch, finished
	// trials are recorded, and a re-run with the same options skips
	// completed trials and resumes in-flight ones from their last
	// checkpoint — bit-identically to a run that was never interrupted.
	CheckpointDir string
}

// DefaultOptions returns a laptop-scale configuration exercising the whole
// stack: small phantoms, a thin U-Net and the paper's search space.
func DefaultOptions() Options {
	net := unet.PaperConfig()
	net.BaseFilters = 2
	net.Steps = 2
	return Options{
		Strategy:        StrategyExperiment,
		GPUs:            4,
		Net:             net,
		Dataset:         msd.Config{Cases: 16, D: 8, H: 8, W: 8, Seed: 7},
		Space:           tune.PaperSpace(),
		Epochs:          2,
		BatchPerReplica: 2,
		Seed:            1,
		MaxTrainCases:   8,
		MaxValCases:     2,
	}
}

// TrialResult is the outcome of one experiment. Dice is the best validation
// Dice over the trial's reported epochs.
type TrialResult struct {
	Config tune.Config
	Dice   float64
	Status string
	Err    error
}

// Result summarizes a full run.
type Result struct {
	Strategy Strategy
	GPUs     int
	Elapsed  time.Duration
	Trials   []TrialResult
	Best     tune.Config
	BestDice float64
}

// Run executes the configured hyper-parameter search and returns per-trial
// and best results.
func Run(opts Options) (*Result, error) {
	if opts.Strategy != StrategyData && opts.Strategy != StrategyExperiment {
		return nil, fmt.Errorf("core: unknown strategy %q", opts.Strategy)
	}
	if opts.GPUs < 1 {
		return nil, fmt.Errorf("core: GPUs must be ≥ 1")
	}
	if opts.Epochs < 1 {
		return nil, fmt.Errorf("core: Epochs must be ≥ 1")
	}
	if opts.Space == nil {
		return nil, fmt.Errorf("core: nil search space")
	}
	configs, err := opts.Space.GridConfigs()
	if err != nil {
		return nil, err
	}
	tune.SortConfigs(configs)
	if opts.Trials > 0 && opts.Trials < len(configs) {
		configs = configs[:opts.Trials]
	}

	train, val, err := msd.Split(opts.Dataset, opts.Net.MinVolume(), opts.MaxTrainCases, opts.MaxValCases)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.ForGPUs(opts.GPUs)
	if err != nil {
		return nil, err
	}

	// The strategy is the trial width: data parallelism runs each trial on
	// all GPUs, experiment parallelism one trial per GPU.
	width := 1
	if opts.Strategy == StrategyData {
		width = opts.GPUs
	}
	runner, err := tune.NewRunner(cl, opts.Scheduler, "dice", "max")
	if err != nil {
		return nil, err
	}
	runner.Width = width
	runner.Workers = opts.Workers
	runner.CheckpointDir = opts.CheckpointDir

	start := time.Now()
	analysis, err := runner.Run(configs, func(ctx *tune.TrialContext) error {
		return trainOne(opts, cl, width, ctx, train, val)
	})
	if err != nil {
		return nil, err
	}
	trials := make([]TrialResult, 0, len(analysis.Trials))
	for _, tr := range analysis.Trials {
		res := TrialResult{Config: tr.Config, Status: tr.Status().String(), Err: tr.Err()}
		res.Dice, _ = tr.BestMetric("dice", "max")
		trials = append(trials, res)
	}

	res := &Result{
		Strategy: opts.Strategy,
		GPUs:     opts.GPUs,
		Elapsed:  time.Since(start),
		Trials:   trials,
	}
	for _, tr := range trials {
		if tr.Err == nil && (res.Best == nil || tr.Dice > res.BestDice) {
			res.Best = tr.Config
			res.BestDice = tr.Dice
		}
	}
	return res, nil
}

// trainOne trains the trial's configuration on gpus GPUs and its worker
// share through a train.Session, reporting each epoch's validation Dice to
// the runner. When the campaign is resumable the session checkpoints into
// the trial's directory every epoch and resumes from an existing checkpoint
// — replaying the restored epochs through the report protocol so the
// scheduler and the trial's best Dice see the same stream as an
// uninterrupted run.
func trainOne(opts Options, cl *cluster.Cluster, gpus int, ctx *tune.TrialContext,
	trainSet, val []*volume.Sample) error {

	cfg := ctx.Trial.Config
	flip := false
	if cfg.Has("augment") {
		switch a := cfg.Str("augment"); a {
		case "none":
		case "flip":
			flip = true
		default:
			return fmt.Errorf("core: unknown augment %q (want none or flip)", a)
		}
	}
	tr, err := raysgd.New(raysgd.Config{
		Cluster:         cl,
		GPUs:            gpus,
		Net:             opts.Net,
		Loss:            cfg.Str("loss"),
		Optimizer:       cfg.Str("optimizer"),
		BaseLR:          cfg.Float("lr"),
		BatchPerReplica: opts.BatchPerReplica,
		Seed:            opts.Seed,
		Workers:         ctx.Workers,
		Flip:            flip,
	})
	if err != nil {
		return err
	}

	report := func(st train.EpochStats) bool {
		return ctx.Report(st.Epoch, map[string]float64{"dice": st.ValDice})
	}
	// Telemetry only observes: it feeds the process-wide train_* metrics.
	cbs := []train.Callback{train.ReportFunc(report), train.NewTelemetry(nil, nil)}
	trialDir, err := ctx.Dir()
	if err != nil {
		return err
	}
	ckptPath := ""
	if trialDir != "" {
		ckptPath = filepath.Join(trialDir, "session.ckpt")
		cbs = append(cbs, &train.PeriodicCheckpoint{Path: ckptPath, Every: 1})
	}
	sess, err := tr.NewSession(opts.Epochs, cbs...)
	if err != nil {
		return err
	}
	if ckptPath != "" {
		if _, err := sess.ResumeFromFile(ckptPath, report); err != nil {
			return err
		}
	}
	_, err = sess.Fit(trainSet, val)
	return err
}
