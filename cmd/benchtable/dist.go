package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/allreduce"
	"repro/internal/dist"
)

// The -dist mode measures real wall-clock data-parallel scaling: for every
// width × codec cell it runs one multi-process training job — an in-process
// coordinator spawning genuine worker processes (this binary re-executed
// with -dist-worker-join) over the TCP all-reduce ring — and prints the
// measured per-step time. This is the ROADMAP's "measured wall-clock
// scaling" rung: the simulated Table I numbers get a ground-truth companion
// on whatever machine runs this.
//
// The workload is deliberately tiny (the distmis smoke configuration) so a
// full 3×3 grid finishes in tens of seconds; absolute numbers are only
// comparable within one machine and run, which is why CI gates on none of
// them.

// distBenchConfig carries the -dist flags.
type distBenchConfig struct {
	widths  []int
	codecs  []string
	cases   int
	dim     int
	epochs  int
	batch   int
	workers int // per-worker compute budget (0 = all cores)
}

// runDistBench prints one row per codec × width with total wall time,
// optimizer steps and time per step.
func runDistBench(cfg distBenchConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("DIST: measured wall-clock step time, %d cases of %d^3, batch %d, %d epoch(s)\n",
		cfg.cases, cfg.dim, cfg.batch, cfg.epochs)
	fmt.Printf("(real worker processes over the TCP ring; codec = gradient wire compression)\n\n")
	fmt.Printf("%-8s %-8s %-10s %-8s %-12s %-10s\n", "codec", "width", "elapsed", "steps", "step-time", "hash")
	for _, codec := range cfg.codecs {
		for _, w := range cfg.widths {
			if cfg.batch%w != 0 {
				return fmt.Errorf("benchtable: batch %d not divisible by width %d", cfg.batch, w)
			}
			res, elapsed, err := runDistOnce(exe, w, codec, cfg)
			if err != nil {
				return fmt.Errorf("width %d codec %s: %w", w, codec, err)
			}
			perStep := elapsed / time.Duration(max(res.Steps, 1))
			fmt.Printf("%-8s %-8d %-10s %-8d %-12s %-10s\n",
				codec, w, elapsed.Round(time.Millisecond), res.Steps,
				perStep.Round(time.Microsecond), res.Hash[:8])
		}
	}
	return nil
}

// runDistOnce runs one coordinator-driven training job at the given width
// and codec, spawning width worker processes, and returns the coordinator
// result with the measured wall time.
func runDistOnce(exe string, width int, codec string, cfg distBenchConfig) (*dist.Result, time.Duration, error) {
	if _, err := allreduce.CodecByName(codec); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp("", "benchtable-dist-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	spec := dist.TrainSpec{
		Cases: cfg.cases, Dim: cfg.dim, DataSeed: 1,
		BaseFilters: 2, NetSteps: 2, Kernel: 3, UpKernel: 2, NetSeed: 1,
		Loss: "dice", Optimizer: "adam", BaseLR: 1e-2, ScaleLR: true,
		Epochs: cfg.epochs, GlobalBatch: cfg.batch, ShuffleSeed: 1,
		CkptPath: dir + "/session.ckpt", CkptEverySteps: 1,
		Codec: codec,
	}
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Width: width,
		Spec:  spec,
		Logf:  func(string, ...any) {}, // rows only; worker stderr still surfaces
	})
	if err != nil {
		return nil, 0, err
	}
	coord.SetSpawn(func() error {
		cmd := exec.Command(exe,
			"-dist-worker-join", coord.Addr(),
			"-dist-spawn-workers", fmt.Sprint(cfg.workers))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		go cmd.Wait() // reap; the coordinator notices death via the control link
		return nil
	})
	start := time.Now()
	res, err := coord.Run()
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start), nil
}

// runDistWorkerMode is the hidden re-exec target: join the coordinator and
// serve training generations until told to stop.
func runDistWorkerMode(join string, workers int) error {
	return dist.RunWorker(dist.WorkerConfig{CoordAddr: join, Workers: workers})
}

// parseWidths parses a comma-separated width list ("1,2,4").
func parseWidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("benchtable: bad width %q in -dist-widths", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchtable: -dist-widths is empty")
	}
	return out, nil
}

// parseCodecs parses and validates a comma-separated codec list.
func parseCodecs(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := allreduce.CodecByName(part); err != nil {
			return nil, err
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchtable: -dist-codecs is empty")
	}
	return out, nil
}
