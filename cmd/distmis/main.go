// Command distmis runs the DistMIS hyper-parameter search end to end with
// real training on synthetic brain phantoms, under either distribution
// strategy of the paper: -strategy data trains every experiment across all
// GPUs serially; -strategy experiment distributes one single-GPU experiment
// per GPU (the Ray.Tune approach). Both run on the same campaign runner, as
// trials of width -gpus or 1.
//
// Usage:
//
//	distmis [-strategy data|experiment] [-gpus N] [-epochs N] [-trials N]
//	        [-cases N] [-dim N] [-scheduler fifo|median|asha] [-seed N]
//	        [-workers N] [-lrpoints N]
//	        [-ckpt-dir DIR]
//
// With -ckpt-dir the search is a resumable campaign: every trial
// checkpoints its training session there each epoch and the runner records
// finished trials, so re-running the same command after an interrupt skips
// completed trials and resumes the in-flight one bit-identically.
//
// Two further modes run fault-tolerant multi-process data-parallel
// training over TCP:
//
//	distmis -mode coordinator [-width N] [-epochs N] [-cases N] [-dim N]
//	        [-batch N] [-lr F] [-loss NAME] [-optimizer NAME] [-ckpt FILE]
//	        [-ckpt-every N] [-group-size N] [-codec none|fp16|int8]
//	        [-kill-rank R -kill-step S]
//
// spawns N worker processes (re-executing this binary in -mode worker),
// trains the single configuration data-parallel over a socket ring, and
// prints final-params-hash=... on completion. Workers checkpoint every
// -ckpt-every steps; a worker that dies is respawned and the membership
// re-forms from the last checkpoint, so the final parameters are
// bit-for-bit those of an undisturbed run. -kill-rank/-kill-step make the
// designated rank exit abruptly mid-training (first generation only) — the
// self-test used by the CI dist-smoke job.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strings"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/msd"
	"repro/internal/telemetry"
	"repro/internal/tune"
	"repro/internal/unet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distmis: ")

	mode := flag.String("mode", "search", "search (the paper's HPO), coordinator or worker (fault-tolerant multi-process training)")
	strategy := flag.String("strategy", "experiment", "distribution strategy: data or experiment")
	gpus := flag.Int("gpus", 4, "GPUs to use: 1-4 on one simulated node, or a multiple of 4 on 4-GPU nodes")
	epochs := flag.Int("epochs", 3, "training epochs per experiment")
	trials := flag.Int("trials", 8, "experiments to run (truncates the 32-point grid)")
	cases := flag.Int("cases", 16, "phantom cases to generate")
	dim := flag.Int("dim", 8, "cubic volume edge (divisible by 2^(steps-1))")
	steps := flag.Int("steps", 2, "U-Net resolution steps")
	filters := flag.Int("filters", 2, "U-Net base filters")
	scheduler := flag.String("scheduler", "fifo", "trial scheduler: fifo, median or asha")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "compute-worker budget shared across replicas/trials (0 = all cores)")
	lrPoints := flag.Int("lrpoints", 2, "log-spaced learning-rate grid points for truncated searches (≥ 2)")
	ckptDir := flag.String("ckpt-dir", "", "campaign checkpoint directory: re-running with the same flags skips completed trials and resumes the in-flight one")

	// Coordinator/worker-mode flags.
	width := flag.Int("width", 3, "coordinator: data-parallel width (worker processes)")
	batch := flag.Int("batch", 0, "coordinator: global batch size (0 = width)")
	lr := flag.Float64("lr", 1e-2, "coordinator: base learning rate (scaled linearly by width)")
	lossName := flag.String("loss", "dice", "coordinator: loss function")
	optName := flag.String("optimizer", "adam", "coordinator: optimizer")
	ckptFile := flag.String("ckpt", "", "coordinator: shared session checkpoint file (\"\" = a fresh temp file)")
	ckptEvery := flag.Int("ckpt-every", 1, "coordinator: checkpoint every N optimizer steps")
	groupSize := flag.Int("group-size", 0, "coordinator: hierarchical ring group size (0 = flat ring)")
	opTimeoutMS := flag.Int("op-timeout-ms", 0, "coordinator: per-collective deadline in ms (0 = 10s)")
	codec := flag.String("codec", "none",
		fmt.Sprintf("coordinator: gradient wire codec: %s", strings.Join(allreduce.CodecNames(), ", ")))
	killRank := flag.Int("kill-rank", -1, "coordinator: rank to kill abruptly in generation 1 (-1 = none)")
	killStep := flag.Int("kill-step", 1, "coordinator: optimizer step after which -kill-rank dies")
	joinAddr := flag.String("join", "", "worker: coordinator control address to join")
	tracePath := flag.String("trace", "", "coordinator: write JSONL lifecycle trace events to FILE")
	metricsAddr := flag.String("metrics-addr", "", "debug listener address exposing /metrics and /debug/pprof/ (\"\" = off)")
	flag.Parse()

	if *metricsAddr != "" {
		bound, err := telemetry.ServeDebug(*metricsAddr, telemetry.Default())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug listener on http://%s/metrics", bound)
	}

	if *lrPoints < 2 {
		log.Fatalf("-lrpoints must be ≥ 2, got %d", *lrPoints)
	}

	switch *mode {
	case "worker":
		runWorkerMode(*joinAddr, *workers, *killRank, *killStep)
		return
	case "coordinator":
		runCoordinatorMode(coordSpec{
			width: *width, epochs: *epochs, cases: *cases, dim: *dim,
			steps: *steps, filters: *filters, seed: *seed, workers: *workers,
			batch: *batch, lr: *lr, loss: *lossName,
			optimizer: *optName, ckpt: *ckptFile, ckptEvery: *ckptEvery,
			groupSize: *groupSize, opTimeoutMS: *opTimeoutMS, codec: *codec,
			killRank: *killRank, killStep: *killStep,
			trace: *tracePath,
		})
		return
	case "search":
		// The paper's hyper-parameter search, below.
	default:
		log.Fatalf("unknown mode %q (want search, coordinator or worker)", *mode)
	}

	opts := core.DefaultOptions()
	opts.Strategy = core.Strategy(*strategy)
	opts.GPUs = *gpus
	opts.Epochs = *epochs
	opts.Seed = *seed
	opts.Dataset = msd.Config{Cases: *cases, D: *dim, H: *dim, W: *dim, Seed: *seed}
	opts.Net = unet.Config{
		InChannels:  4,
		OutChannels: 1,
		BaseFilters: *filters,
		Steps:       *steps,
		Kernel:      3,
		UpKernel:    2,
		Seed:        *seed,
	}
	opts.MaxTrainCases = 0
	opts.MaxValCases = 0
	opts.Workers = *workers
	opts.CheckpointDir = *ckptDir

	switch *scheduler {
	case "fifo":
		opts.Scheduler = nil
	case "median":
		opts.Scheduler = tune.MedianStopping{Metric: "dice", Mode: "max", GracePeriod: 1, MinPeers: 2}
	case "asha":
		opts.Scheduler = tune.NewASHA("dice", "max", 1, 2)
	default:
		log.Fatalf("unknown scheduler %q", *scheduler)
	}

	// Truncate the paper's 32-configuration grid to the requested size.
	cfgs, err := opts.Space.GridConfigs()
	if err != nil {
		log.Fatal(err)
	}
	tune.SortConfigs(cfgs)
	if *trials < len(cfgs) {
		// The learning-rate axis extends log-spaced (LogSpaced with 2 points
		// is exactly the former {1e-2, 3e-2} grid): linear spacing would
		// crowd extra points into the top of the 1e-2–3e-2 range.
		dims := []tune.Dimension{
			tune.LogSpaced("lr", 1e-2, 3e-2, *lrPoints),
			tune.Grid("loss", "dice", "quadratic-dice"),
			tune.Grid("optimizer", "adam", "sgd"),
		}
		space, err := tune.NewSpace(dims...)
		if err != nil {
			log.Fatal(err)
		}
		opts.Space = space
		if cfgs, err = space.GridConfigs(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("DistMIS: strategy=%s gpus=%d experiments=%d epochs=%d volume=%d^3\n",
		*strategy, *gpus, min(len(cfgs), *trials), *epochs, *dim)

	res, err := core.Run(opts)
	if err != nil {
		log.Fatal(err)
	}

	sort.Slice(res.Trials, func(i, j int) bool { return res.Trials[i].Dice > res.Trials[j].Dice })
	fmt.Printf("\n%-10s %-16s %-6s %-8s %-10s\n", "lr", "loss", "opt", "dice", "status")
	for _, tr := range res.Trials {
		fmt.Printf("%-10.4g %-16s %-6s %-8.4f %-10s\n",
			tr.Config.Float("lr"), tr.Config.Str("loss"), tr.Config.Str("optimizer"), tr.Dice, tr.Status)
	}
	fmt.Printf("\nbest dice %.4f with %v\nelapsed %s (%s strategy on %d GPUs)\n",
		res.BestDice, res.Best, res.Elapsed.Round(1e6), res.Strategy, res.GPUs)
}

// coordSpec carries the coordinator-mode flags.
type coordSpec struct {
	width, epochs, cases, dim, steps, filters int
	seed                                      int64
	workers                                   int
	batch                                     int
	lr                                        float64
	loss, optimizer, ckpt                     string
	ckptEvery, groupSize, opTimeoutMS         int
	codec                                     string
	killRank, killStep                        int
	trace                                     string
}

// runCoordinatorMode trains one configuration data-parallel over a TCP
// ring, spawning (and respawning) worker processes by re-executing this
// binary. It prints the final parameter hash — the quantity the CI smoke
// job compares between a clean and a kill-injected run.
func runCoordinatorMode(s coordSpec) {
	if s.batch <= 0 {
		s.batch = s.width
	}
	if s.ckpt == "" {
		dir, err := os.MkdirTemp("", "distmis-ckpt-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		s.ckpt = dir + "/session.ckpt"
	}
	spec := dist.TrainSpec{
		Cases: s.cases, Dim: s.dim, DataSeed: s.seed,
		BaseFilters: s.filters, NetSteps: s.steps, Kernel: 3, UpKernel: 2, NetSeed: s.seed,
		Loss: s.loss, Optimizer: s.optimizer, BaseLR: s.lr, ScaleLR: true,
		Epochs: s.epochs, GlobalBatch: s.batch, ShuffleSeed: s.seed,
		GroupSize: s.groupSize,
		CkptPath:  s.ckpt, CkptEverySteps: s.ckptEvery,
		OpTimeoutMS: s.opTimeoutMS,
		Codec:       s.codec,
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	var tracer *telemetry.Tracer
	if s.trace != "" {
		tracer, err = telemetry.NewTracerFile(s.trace)
		if err != nil {
			log.Fatal(err)
		}
		defer tracer.Close()
		log.Printf("tracing lifecycle events to %s", s.trace)
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Width:  s.width,
		Spec:   spec,
		Logf:   log.Printf,
		Tracer: tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	spawn := func() error {
		args := []string{
			"-mode", "worker",
			"-join", coord.Addr(),
			"-workers", fmt.Sprint(s.workers),
		}
		if s.killRank >= 0 {
			args = append(args, "-kill-rank", fmt.Sprint(s.killRank), "-kill-step", fmt.Sprint(s.killStep))
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go cmd.Wait() // reap; the coordinator notices death via the control link
		return nil
	}

	fmt.Printf("distmis coordinator: width=%d batch=%d epochs=%d volume=%d^3 ckpt=%s\n",
		s.width, s.batch, s.epochs, s.dim, s.ckpt)
	coord.SetSpawn(spawn)
	res, err := coord.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final-params-hash=%s gens=%d reforms=%d steps=%d width=%d\n",
		res.Hash, res.Gens, res.Reforms, res.Steps, res.Width)
}

// runWorkerMode joins a coordinator and serves training generations until
// told to stop. With -kill-rank matching its assigned rank, the process
// exits abruptly after -kill-step in the first generation — a real
// SIGKILL-grade death for the fault-tolerance smoke test; generations
// after the first never re-trigger it, so the respawned worker survives.
func runWorkerMode(join string, workers, killRank, killStep int) {
	if join == "" {
		log.Fatal("-mode worker requires -join ADDRESS")
	}
	var hooks *dist.Hooks
	if killRank >= 0 {
		hooks = &dist.Hooks{
			AfterStep: func(gen uint32, rank, step int) error {
				if gen == 1 && rank == killRank && step == killStep {
					log.Printf("worker rank %d: injected kill after step %d", rank, step)
					os.Exit(3)
				}
				return nil
			},
		}
	}
	if err := dist.RunWorker(dist.WorkerConfig{
		CoordAddr: join,
		Workers:   workers,
		Hooks:     hooks,
	}); err != nil {
		log.Fatal(err)
	}
}
