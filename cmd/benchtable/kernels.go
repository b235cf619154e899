package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Kernel-level benchmark tables: wall-clock per convolution layer
// invocation for every registered conv backend (direct, gemm, generated,
// and whatever else the binary links in — the tables iterate
// nn.ConvEngines()), across the U-Net's characteristic shapes and worker
// counts. This is the bench-over-time companion to the `go test -bench`
// kernels — a plain binary that can run anywhere (CI smoke jobs,
// multi-core validation boxes) and whose output is recorded in BENCH.md.
//
// All four benchmarked shapes are paper-table shapes, so the "generated"
// rows run the shape-specialized kernels, not their fallback.

// kernelShape is one benchmarked layer configuration.
type kernelShape struct {
	name       string
	ic, oc, k  int
	n, dim     int
	transposed bool
}

func kernelShapes() []kernelShape {
	return []kernelShape{
		{name: "body 8->16 k3 16^3 b2", ic: 8, oc: 16, k: 3, n: 2, dim: 16},
		{name: "deep 32->32 k3 8^3 b2", ic: 32, oc: 32, k: 3, n: 2, dim: 8},
		{name: "head 8->1 k1 16^3 b2", ic: 8, oc: 1, k: 1, n: 2, dim: 16},
		{name: "up 16->16 k2 8^3 b2", ic: 16, oc: 16, k: 2, n: 2, dim: 8, transposed: true},
	}
}

func kernelWorkerCounts() []int {
	set := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		set = append(set, n)
	}
	return set
}

// timeKernel returns the best-of-reps wall clock of one forward and one
// backward invocation of the shape under the given engine and budget.
func timeKernel(sh kernelShape, engine nn.ConvEngine, workers, reps int) (fwd, bwd time.Duration) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 0, 1, sh.n, sh.ic, sh.dim, sh.dim, sh.dim)

	var layer nn.Layer
	outDim := sh.dim
	if sh.transposed {
		t := nn.NewConvTranspose3D("b", sh.ic, sh.oc, sh.k, rand.New(rand.NewSource(3)))
		t.SetConvEngine(engine)
		t.SetWorkers(workers)
		layer = t
		outDim = sh.dim * sh.k
	} else {
		c := nn.NewConv3D("b", sh.ic, sh.oc, sh.k, rand.New(rand.NewSource(3)))
		c.SetConvEngine(engine)
		c.SetWorkers(workers)
		layer = c
	}
	g := tensor.Randn(rng, 0, 1, sh.n, sh.oc, outDim, outDim, outDim)

	layer.Forward(x) // warm-up: pools, caches, goroutines
	layer.Backward(g)
	fwd, bwd = time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		layer.Forward(x)
		if d := time.Since(t0); d < fwd {
			fwd = d
		}
		t0 = time.Now()
		layer.Backward(g)
		if d := time.Since(t0); d < bwd {
			bwd = d
		}
	}
	return fwd, bwd
}

// kernelSpeedups measures the workers=1 engine-over-direct speedup of one
// shape, forward and backward.
func kernelSpeedups(sh kernelShape, engine nn.ConvEngine, reps int) (fwd, bwd float64) {
	dFwd, dBwd := timeKernel(sh, nn.EngineDirect, 1, reps)
	gFwd, gBwd := timeKernel(sh, engine, 1, reps)
	return float64(dFwd) / float64(gFwd), float64(dBwd) / float64(gBwd)
}

// trainStepShapeName is the floors-file name of the whole-network training
// step measurement — the regression guard over the GEMM training path,
// which only a full forward+backward through every layer exercises
// end to end (halo copies, the flipped-kernel input gradient,
// batch-parallel backward-weights, per-layer scratch traffic).
const trainStepShapeName = "unet trainstep 8^3 b2 f4 s3"

// trainStepConfig is the network behind trainStepShapeName: small enough
// to time in CI, deep enough to hit every conv path (body 3³, head 1³,
// up 2³) at batch 2.
func trainStepConfig(engine nn.ConvEngine, workers int) unet.Config {
	return unet.Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 4,
		Steps:       3,
		Kernel:      3,
		UpKernel:    2,
		Seed:        1,
		Workers:     workers,
		Engine:      engine,
	}
}

// timeTrainStep returns the best-of-reps wall clock of one full training
// step (zero grads, forward, backward) of the train-step network.
func timeTrainStep(engine nn.ConvEngine, workers, reps int) time.Duration {
	u := unet.MustNew(trainStepConfig(engine, workers))
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 0, 1, 2, 2, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 2, 1, 8, 8, 8)
	step := func() {
		u.ZeroGrads()
		u.Forward(x)
		u.Backward(g)
	}
	step() // warm-up: pools, goroutines
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		step()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// trainStepSpeedup measures the workers=1 engine-over-direct speedup of the
// full training step.
func trainStepSpeedup(engine nn.ConvEngine, reps int) float64 {
	d := timeTrainStep(nn.EngineDirect, 1, reps)
	g := timeTrainStep(engine, 1, reps)
	return float64(d) / float64(g)
}

// speedupFloor is one line of the checked-in floors file: the minimum
// workers=1 engine-over-direct speedup a (backend, shape) cell must
// sustain.
type speedupFloor struct {
	engine nn.ConvEngine
	name   string
	fwd    float64
	bwd    float64
}

// loadFloors parses a floors file: per line
// `fwdFloor bwdFloor engine shape name`, '#' comments and blank lines
// ignored. The engine must name a backend registered in this binary.
func loadFloors(path string) ([]speedupFloor, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []speedupFloor
	for ln, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("%s:%d: want `fwdFloor bwdFloor engine shape name`, got %q", path, ln+1, line)
		}
		fwd, err1 := strconv.ParseFloat(fields[0], 64)
		bwd, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: bad floor values in %q", path, ln+1, line)
		}
		engine, ok := nn.LookupConvEngine(fields[2])
		if !ok {
			return nil, fmt.Errorf("%s:%d: unknown engine %q (registered: %s)",
				path, ln+1, fields[2], strings.Join(nn.ConvEngines(), ", "))
		}
		out = append(out, speedupFloor{
			engine: engine,
			name:   strings.Join(fields[3:], " "),
			fwd:    fwd,
			bwd:    bwd,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no floors", path)
	}
	return out, nil
}

// checkKernelFloors is the bench regression gate: every floored
// (backend, shape) cell is measured at workers=1 and must beat its
// checked-in engine-over-direct speedup floor. A cell that misses is
// re-measured once — only a floor missed twice in a row fails the gate, so
// a single scheduling hiccup on a noisy CI runner does not block the build.
func checkKernelFloors(floorsPath string, reps int) error {
	floors, err := loadFloors(floorsPath)
	if err != nil {
		return err
	}
	shapes := map[string]kernelShape{}
	for _, sh := range kernelShapes() {
		shapes[sh.name] = sh
	}
	fmt.Printf("KERNEL REGRESSION GATE: engine-over-direct speedup floors, workers=1, best of %d\n\n", reps)
	var failures []string
	for _, fl := range floors {
		label := fl.engine.String() + " " + fl.name
		if fl.name == trainStepShapeName {
			// Whole-network training step: one speedup number, gated
			// against the line's first (fwd) floor.
			step := trainStepSpeedup(fl.engine, reps)
			status := "ok"
			if step < fl.fwd {
				fmt.Printf("  %-32s step %.2fx (floor %.2f) — MISS, re-measuring\n", label, step, fl.fwd)
				step = trainStepSpeedup(fl.engine, reps)
				if step < fl.fwd {
					status = "FAIL (missed twice in a row)"
					failures = append(failures, fmt.Sprintf("%s: step %.2fx (floor %.2f)", label, step, fl.fwd))
				} else {
					status = "ok on retry"
				}
			}
			fmt.Printf("  %-32s step %5.2fx (floor %.2f)   %s\n", label, step, fl.fwd, status)
			continue
		}
		sh, ok := shapes[fl.name]
		if !ok {
			return fmt.Errorf("floors file names unknown shape %q", fl.name)
		}
		fwd, bwd := kernelSpeedups(sh, fl.engine, reps)
		miss := func(got, floor float64) bool { return got < floor }
		status := "ok"
		if miss(fwd, fl.fwd) || miss(bwd, fl.bwd) {
			fmt.Printf("  %-32s fwd %.2fx (floor %.2f) bwd %.2fx (floor %.2f) — MISS, re-measuring\n",
				label, fwd, fl.fwd, bwd, fl.bwd)
			fwd, bwd = kernelSpeedups(sh, fl.engine, reps)
			if miss(fwd, fl.fwd) || miss(bwd, fl.bwd) {
				status = "FAIL (missed twice in a row)"
				failures = append(failures, fmt.Sprintf(
					"%s: fwd %.2fx (floor %.2f), bwd %.2fx (floor %.2f)", label, fwd, fl.fwd, bwd, fl.bwd))
			} else {
				status = "ok on retry"
			}
		}
		fmt.Printf("  %-32s fwd %6.2fx (floor %.2f)   bwd %6.2fx (floor %.2f)   %s\n",
			label, fwd, fl.fwd, bwd, fl.bwd, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("speedup floors missed twice in a row:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// printKernelTables renders one table per shape: a row per registered
// backend and worker count, with the per-row speedup over the direct
// reference at the same budget.
func printKernelTables(reps int) {
	if reps < 1 {
		reps = 1
	}
	engines := nn.ConvEngines()
	fmt.Printf("KERNEL BENCHMARKS: conv backends %s, best of %d (GOMAXPROCS=%d, NumCPU=%d)\n\n",
		strings.Join(engines, "/"), reps, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, sh := range kernelShapes() {
		fmt.Printf("%s\n", sh.name)
		fmt.Printf("  %-8s %-12s %12s %10s %12s %10s\n",
			"workers", "engine", "fwd", "vs direct", "bwd", "vs direct")
		for _, w := range kernelWorkerCounts() {
			dFwd, dBwd := timeKernel(sh, nn.EngineDirect, w, reps)
			for _, name := range engines {
				engine, _ := nn.LookupConvEngine(name)
				eFwd, eBwd := dFwd, dBwd
				if engine != nn.EngineDirect {
					eFwd, eBwd = timeKernel(sh, engine, w, reps)
				}
				fmt.Printf("  %-8d %-12s %12s %9.2fx %12s %9.2fx\n",
					w, name,
					eFwd.Round(time.Microsecond), float64(dFwd)/float64(eFwd),
					eBwd.Round(time.Microsecond), float64(dBwd)/float64(eBwd))
			}
		}
		fmt.Println()
	}

	// Whole-network training step: the end-to-end guard over the GEMM
	// training path (halo packing, batch-parallel backward-weights).
	fmt.Printf("%s (full fwd+bwd step)\n", trainStepShapeName)
	fmt.Printf("  %-8s %12s %12s %8s\n", "workers", "direct step", "gemm step", "speedup")
	for _, w := range kernelWorkerCounts() {
		d := timeTrainStep(nn.EngineDirect, w, reps)
		g := timeTrainStep(nn.EngineGEMM, w, reps)
		fmt.Printf("  %-8d %12s %12s %7.2fx\n",
			w, d.Round(time.Microsecond), g.Round(time.Microsecond), float64(d)/float64(g))
	}
	fmt.Println()
}
