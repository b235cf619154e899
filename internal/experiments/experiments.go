// Package experiments regenerates the paper's evaluation artifacts: Table I
// (elapsed time and speed-up of the data-parallel and experiment-parallel
// methods for 1..32 GPUs) and Figure 4 (elapsed-time and speed-up curves
// with min/max whiskers over three repetitions). Campaign durations come
// from one analytic model of the paper's cluster (model.go): a V100 device
// model, an NVLink/InfiniBand interconnect and the paper's workload facts.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/tune"
)

// PaperGPUCounts is the paper's scaling ladder.
var PaperGPUCounts = []int{1, 2, 4, 8, 12, 16, 32}

// CampaignConfig describes one Table-I regeneration run.
type CampaignConfig struct {
	Params    Params
	Trials    int   // experiments in the hyper-parameter search
	Reps      int   // repetitions averaged (paper: 3)
	Seed      int64 // base seed for convergence + jitter draws
	GPUCounts []int
}

// PaperCampaign returns the paper's configuration: the 32-trial cross
// product, 3 repetitions, GPUs 1..32.
func PaperCampaign() (CampaignConfig, error) {
	p, err := Paper()
	if err != nil {
		return CampaignConfig{}, err
	}
	return CampaignConfig{
		Params:    p,
		Trials:    tune.PaperSpace().Size(),
		Reps:      3,
		Seed:      1,
		GPUCounts: PaperGPUCounts,
	}, nil
}

// RunStats aggregates repetitions of one (method, GPU count) cell.
type RunStats struct {
	MeanSec float64
	MinSec  float64
	MaxSec  float64
	Speedup float64 // mean(1 GPU) / mean(n GPUs), per method
}

// Measurement is one row of Table I.
type Measurement struct {
	GPUs int
	Data RunStats
	Exp  RunStats
}

// trialEpochs draws the per-trial effective epoch counts for one repetition.
func trialEpochs(p Params, trials int, rng *rand.Rand) []int {
	out := make([]int, trials)
	for i := range out {
		out[i] = p.ConvergenceEpochs(rng)
	}
	return out
}

// DataParallelCampaignSec returns the makespan of running every experiment
// of the search serially, each distributed over n GPUs — the paper's
// data-parallel method.
func DataParallelCampaignSec(p Params, nGPUs int, epochs []int, rng *rand.Rand) float64 {
	var total float64
	for _, e := range epochs {
		total += p.TrialStartupSec + float64(e)*p.EpochTimeDataParallel(nGPUs, true)*p.Jitter(rng)
	}
	return total
}

// ExperimentParallelCampaignSec returns the makespan of running the search
// with one trial per GPU under greedy FIFO placement — the paper's
// Ray.Tune experiment-parallel method. Each trial is slowed by
// shared-filesystem contention among the trials running when it launches.
func ExperimentParallelCampaignSec(p Params, nGPUs int, epochs []int, rng *rand.Rand) float64 {
	var now float64
	// Completion times of the running trials, in launch order.
	running := make([]float64, 0, nGPUs)
	for _, e := range epochs {
		if len(running) == nGPUs {
			// The earliest completion frees a GPU; on equal times the
			// earlier-launched trial finishes first.
			first := 0
			for i, t := range running {
				if t < running[first] {
					first = i
				}
			}
			now = running[first]
			running = slices.Delete(running, first, first+1)
		}
		base := p.TrialTimeSingleGPU(e) * p.Jitter(rng)
		dur := p.TrialStartupSec + base*p.IOSlowdown(len(running)+1)
		running = append(running, now+dur)
	}
	if len(running) == 0 {
		return 0
	}
	return slices.Max(running)
}

// RunTable1 regenerates Table I for the given configuration.
func RunTable1(cfg CampaignConfig) ([]Measurement, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Trials must be positive")
	}
	if cfg.Reps <= 0 {
		return nil, fmt.Errorf("experiments: Reps must be positive")
	}
	if len(cfg.GPUCounts) == 0 {
		return nil, fmt.Errorf("experiments: no GPU counts")
	}

	type cell struct{ data, exp []float64 }
	cells := make([]cell, len(cfg.GPUCounts))

	for rep := 0; rep < cfg.Reps; rep++ {
		// Each repetition draws its own convergence profile and jitter,
		// shared across GPU counts and both methods so every column of the
		// table measures the same workload.
		for gi, n := range cfg.GPUCounts {
			epochRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*1009))
			epochs := trialEpochs(cfg.Params, cfg.Trials, epochRng)

			dataRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*1009 + int64(n)*31 + 1))
			expRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*1009 + int64(n)*31 + 2))
			cells[gi].data = append(cells[gi].data, DataParallelCampaignSec(cfg.Params, n, epochs, dataRng))
			cells[gi].exp = append(cells[gi].exp, ExperimentParallelCampaignSec(cfg.Params, n, epochs, expRng))
		}
	}

	stats := func(xs []float64) RunStats {
		s := RunStats{MinSec: math.Inf(1), MaxSec: math.Inf(-1)}
		for _, x := range xs {
			s.MeanSec += x
			s.MinSec = math.Min(s.MinSec, x)
			s.MaxSec = math.Max(s.MaxSec, x)
		}
		s.MeanSec /= float64(len(xs))
		return s
	}

	out := make([]Measurement, len(cfg.GPUCounts))
	for gi, n := range cfg.GPUCounts {
		out[gi] = Measurement{GPUs: n, Data: stats(cells[gi].data), Exp: stats(cells[gi].exp)}
	}
	// Speedups are normalized to each method's own first-row mean (the
	// 1-GPU cell in the paper's ladder), as in the paper.
	baseData := out[0].Data.MeanSec
	baseExp := out[0].Exp.MeanSec
	for gi := range out {
		out[gi].Data.Speedup = baseData / out[gi].Data.MeanSec
		out[gi].Exp.Speedup = baseExp / out[gi].Exp.MeanSec
	}
	return out, nil
}

// FormatHMS renders seconds as H:MM:SS like the paper's Table I.
func FormatHMS(sec float64) string {
	s := int(math.Round(sec))
	return fmt.Sprintf("%d:%02d:%02d", s/3600, (s%3600)/60, s%60)
}

// FormatTable1 renders measurements in the paper's table layout.
func FormatTable1(rows []Measurement) string {
	var b strings.Builder
	b.WriteString("            Data Parallel Method      Experiment Parallel Method\n")
	b.WriteString("# GPUs    Elapsed time   Speedup     Elapsed time   Speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d    %12s   %7.2f     %12s   %7.2f\n",
			r.GPUs, FormatHMS(r.Data.MeanSec), r.Data.Speedup,
			FormatHMS(r.Exp.MeanSec), r.Exp.Speedup)
	}
	return b.String()
}

// Series is one curve of Figure 4.
type Series struct {
	Label string
	GPUs  []int
	Mean  []float64
	Min   []float64
	Max   []float64
}

// Fig4a returns the elapsed-time curves (seconds) with min/max whiskers.
func Fig4a(rows []Measurement) (data, exp Series) {
	data.Label, exp.Label = "data-parallel", "experiment-parallel"
	for _, r := range rows {
		data.GPUs = append(data.GPUs, r.GPUs)
		data.Mean = append(data.Mean, r.Data.MeanSec)
		data.Min = append(data.Min, r.Data.MinSec)
		data.Max = append(data.Max, r.Data.MaxSec)
		exp.GPUs = append(exp.GPUs, r.GPUs)
		exp.Mean = append(exp.Mean, r.Exp.MeanSec)
		exp.Min = append(exp.Min, r.Exp.MinSec)
		exp.Max = append(exp.Max, r.Exp.MaxSec)
	}
	return data, exp
}

// Fig4b returns the speed-up curves.
func Fig4b(rows []Measurement) (data, exp Series) {
	data.Label, exp.Label = "data-parallel", "experiment-parallel"
	for _, r := range rows {
		data.GPUs = append(data.GPUs, r.GPUs)
		data.Mean = append(data.Mean, r.Data.Speedup)
		exp.GPUs = append(exp.GPUs, r.GPUs)
		exp.Mean = append(exp.Mean, r.Exp.Speedup)
	}
	return data, exp
}

// FormatSeries renders a Figure-4 series as aligned text columns.
func FormatSeries(s Series, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", s.Label, unit)
	for i, g := range s.GPUs {
		if s.Min != nil && s.Max != nil {
			fmt.Fprintf(&b, "  %2d GPUs: %12.1f  [min %.1f, max %.1f]\n", g, s.Mean[i], s.Min[i], s.Max[i])
		} else {
			fmt.Fprintf(&b, "  %2d GPUs: %12.2f\n", g, s.Mean[i])
		}
	}
	return b.String()
}
