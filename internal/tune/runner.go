package tune

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/cluster"
	"repro/internal/parallel"
)

// TrialContext is handed to the user's training function. Its Report method
// is the paper's "reporting callback function" protocol: the trainable
// reports metrics each epoch and learns whether to keep going.
type TrialContext struct {
	Trial *Trial
	// Workers is the trial's share of the runner's compute-worker budget:
	// the runner's concurrent trials split Runner.Workers with
	// parallel.ShareN, one share per slot, so running trials hold disjoint
	// shares that together use the whole budget.
	Workers int

	runner *Runner
	stop   bool
}

// Report records metrics at a step and returns false when the scheduler
// wants the trial stopped; the trainable should then return promptly.
func (c *TrialContext) Report(step int, metrics map[string]float64) bool {
	if c.stop {
		return false
	}
	rep := Report{Step: step, Metrics: metrics}
	c.Trial.addReport(rep)
	if c.runner.scheduler.OnReport(c.Trial, rep, c.runner.trials) == StopTrial {
		c.stop = true
		return false
	}
	return true
}

// Stopped reports whether the scheduler has requested an early stop.
func (c *TrialContext) Stopped() bool { return c.stop }

// Dir returns the trial's private checkpoint directory (creating it on
// first call) when the runner has a CheckpointDir, or "" when the campaign
// is not resumable. Trainables put their session checkpoints here; a re-run
// of an interrupted campaign hands the re-executed trial the same
// directory, so it can resume from its last checkpoint.
func (c *TrialContext) Dir() (string, error) {
	if c.runner.CheckpointDir == "" {
		return "", nil
	}
	dir := TrialDir(c.runner.CheckpointDir, c.Trial.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("tune: %w", err)
	}
	return dir, nil
}

// Trainable is the user's training function, the analogue of the "training
// function to be called from Ray, having a dictionary containing the
// hyperparameters as argument".
type Trainable func(ctx *TrialContext) error

// Runner executes a set of trials over a cluster, Width GPUs per trial.
type Runner struct {
	Cluster *cluster.Cluster
	Metric  string
	Mode    string // "max" (default) or "min"

	// Width is the number of GPUs each trial holds (0 means 1). The
	// cluster's GPUs form TotalGPUs/Width slots, slot s holding GPUs
	// [s·Width, (s+1)·Width), and each slot runs one trial at a time:
	// width 1 is the paper's experiment parallelism, width TotalGPUs its
	// data parallelism (trials in series, each on every GPU).
	Width int
	// Workers is the compute-worker budget (0 = all cores) the concurrent
	// trials divide; each reads its share from TrialContext.Workers.
	Workers int

	// CheckpointDir, when non-empty, makes the campaign resumable: every
	// trial's terminal outcome is committed to its campaign.json, together
	// with a stateful scheduler's state, and a re-run with the same
	// (deterministically ordered) configs restores finished trials instead
	// of re-training them, and each trainable gets a private per-trial
	// directory (TrialContext.Dir) for its own session checkpoints, so
	// in-flight trials resume from their last checkpoint.
	CheckpointDir string

	scheduler Scheduler
	trials    []*Trial
	persistMu sync.Mutex // serializes campaign-file commits
}

// NewRunner builds a runner; a nil scheduler means FIFO.
func NewRunner(cl *cluster.Cluster, sched Scheduler, metric, mode string) (*Runner, error) {
	if cl == nil {
		return nil, fmt.Errorf("tune: nil cluster")
	}
	if metric == "" {
		return nil, fmt.Errorf("tune: metric name required")
	}
	if mode != "max" && mode != "min" {
		return nil, fmt.Errorf("tune: mode must be \"max\" or \"min\", got %q", mode)
	}
	if sched == nil {
		sched = FIFO{}
	}
	return &Runner{Cluster: cl, Metric: metric, Mode: mode, scheduler: sched}, nil
}

// Run executes one trial per configuration, at most TotalGPUs/Width
// concurrently, and blocks until all trials finish. This is the analogue of
// Tune.Run: "the batch of experiments are run through Tune.Run, passing the
// set of hyper-parameters to explore".
func (r *Runner) Run(configs []Config, trainable Trainable) (*Analysis, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("tune: no configurations to run")
	}
	if trainable == nil {
		return nil, fmt.Errorf("tune: nil trainable")
	}
	width := max(r.Width, 1)
	if width > r.Cluster.TotalGPUs() {
		return nil, fmt.Errorf("tune: trial width %d exceeds the cluster's %d GPUs", width, r.Cluster.TotalGPUs())
	}
	r.trials = make([]*Trial, len(configs))
	for i, cfg := range configs {
		r.trials[i] = NewTrial(i, cfg)
	}

	// Campaign resume: restore terminal trials recorded by a previous run
	// of the same campaign; everything else is (re)scheduled.
	restored := make([]bool, len(r.trials))
	var camp *campaign
	if r.CheckpointDir != "" {
		if err := os.MkdirAll(r.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
		camp = readCampaign(r.CheckpointDir)
		for i, trial := range r.trials {
			restored[i] = camp.restoreTrial(trial)
		}
		// Restore the scheduler's own observations. Preferred path: the
		// state committed with the trial records, which holds exactly what
		// the scheduler had seen — including reports from in-flight trials
		// that never reached a terminal record. Fallback (no state, a
		// different scheduler): replay the restored terminal reports in
		// deterministic trial order. The verdicts are discarded either way:
		// restored trials are terminal.
		if !camp.restoreScheduler(r.scheduler) {
			for i, trial := range r.trials {
				if !restored[i] {
					continue
				}
				for _, rep := range trial.Reports() {
					r.scheduler.OnReport(trial, rep, r.trials)
				}
			}
		}
	}

	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup

	// One goroutine per trial slot pulls pending trials until none remain.
	// The slot index picks the trial's GPUs and worker share, so the
	// running trials always hold disjoint GPUs and disjoint shares.
	slots := min(r.Cluster.TotalGPUs()/width, len(configs))
	shares := parallel.ShareN(r.Workers, slots)
	for slot := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gpus := make([]int, width)
			for i := range gpus {
				gpus[i] = slot*width + i
			}
			for {
				mu.Lock()
				for next < len(r.trials) && restored[next] {
					next++
				}
				if next >= len(r.trials) {
					mu.Unlock()
					return
				}
				trial := r.trials[next]
				next++
				mu.Unlock()
				trial.setGPUs(gpus)
				trial.setStatus(Running)
				ctx := &TrialContext{Trial: trial, Workers: shares[slot], runner: r}
				err := runTrial(ctx, trainable)
				switch {
				case err != nil:
					trial.setErr(err)
				case ctx.stop:
					trial.setStatus(Stopped)
				default:
					trial.setStatus(Terminated)
				}
				if camp != nil {
					r.persistMu.Lock()
					werr := camp.commit(r.CheckpointDir, trial, r.scheduler)
					r.persistMu.Unlock()
					if werr != nil && trial.Err() == nil {
						trial.setErr(werr)
					}
				}
			}
		}()
	}
	wg.Wait()
	return &Analysis{Trials: r.trials, Metric: r.Metric, Mode: r.Mode}, nil
}

// runTrial isolates trainable panics into trial errors so one bad
// configuration cannot take down the whole search.
func runTrial(ctx *TrialContext, trainable Trainable) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("tune: trial %d panicked: %v", ctx.Trial.ID, rec)
		}
	}()
	return trainable(ctx)
}
