package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msd"
	"repro/internal/parallel"
	"repro/internal/raysgd"
	"repro/internal/train"
	"repro/internal/tune"
	"repro/internal/volume"
)

// campaignGPUs is the parallel degree of both campaigns: data parallelism
// trains each trial on this many mirrored replicas; experiment parallelism
// asks core.Run for this many GPUs (which it rounds up to a whole 4-GPU
// node, so all four trials of the grid run concurrently on two cores).
const campaignGPUs = 2

// campaignSpace is the grid both campaigns search: lr × loss × adam, four
// trials.
func campaignSpace() (*tune.Space, error) {
	return tune.NewSpace(
		tune.Grid("lr", 1e-3, 1e-2),
		tune.Grid("loss", "dice", "bce"),
		tune.Grid("optimizer", "adam"))
}

// oneTrialSpace is the smallest campaign: the warm-up, and the run that
// times core.Run's data preparation.
func oneTrialSpace() (*tune.Space, error) {
	return tune.NewSpace(tune.Grid("lr", 1e-3), tune.Grid("loss", "dice"), tune.Grid("optimizer", "adam"))
}

func campaignOptions(p params, strategy core.Strategy, space *tune.Space) core.Options {
	return core.Options{
		Strategy: strategy, GPUs: campaignGPUs, Net: p.net(), Dataset: p.campaignDataset(), Space: space,
		Epochs: p.campEpochs, BatchPerReplica: p.batch, Seed: p.sub("campaign"),
		MaxTrainCases: p.campTrain, MaxValCases: p.campVal,
	}
}

// campaignData regenerates what core.Run trains on (its prepareData), for
// the input hash and for the traced campaign that is rebuilt from tune and
// raysgd.
func campaignData(p params) (train, val []*volume.Sample, err error) {
	ds, err := msd.Generate(p.campaignDataset())
	if err != nil {
		return nil, nil, err
	}
	pick := func(idx []int, limit int) ([]*volume.Sample, error) {
		if len(idx) > limit {
			idx = idx[:limit]
		}
		out := make([]*volume.Sample, len(idx))
		for i, c := range idx {
			if out[i], err = volume.Preprocess(ds.Cases[c], p.net().MinVolume()); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if train, err = pick(ds.Train, p.campTrain); err != nil {
		return nil, nil, err
	}
	val, err = pick(ds.Val, p.campVal)
	return train, val, err
}

// campaignRig is one built campaign: the options of the timed repetitions
// and the hash of the data they train on, warmed by a one-trial one-epoch
// campaign through the same strategy.
type campaignRig struct {
	opts      core.Options
	inputHash string
	trainN    int
}

func buildCampaignRig(p params, strategy core.Strategy) (*campaignRig, error) {
	tr, va, err := campaignData(p)
	if err != nil {
		return nil, err
	}
	ih := newInputHasher()
	ih.addSamples(tr)
	ih.addSamples(va)
	space, err := campaignSpace()
	if err != nil {
		return nil, err
	}
	one, err := oneTrialSpace()
	if err != nil {
		return nil, err
	}
	warm := campaignOptions(p, strategy, one)
	warm.Epochs = 1
	if _, err := core.Run(warm); err != nil {
		return nil, err
	}
	return &campaignRig{opts: campaignOptions(p, strategy, space), inputHash: ih.sum(), trainN: len(tr)}, nil
}

// runCampaign is the campaign_experiment / campaign_data workload: core.Run
// repeated until the window is used up (at least twice, so determinism can
// be checked). One op is one campaign.
func runCampaign(p params, strategy core.Strategy) (*outcome, error) {
	out := newOutcome()
	rig, setupS, err := repeatSetup(p, func() (*campaignRig, error) { return buildCampaignRig(p, strategy) }, nil)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS
	out.notes["input_hash"] = rig.inputHash

	var walls []float64 // calibrated ms per campaign
	var first *core.Result
	// A campaign lasts seconds and averages over the box's fast jitter, so
	// the readings around it are long enough to do the same.
	meter := speedMeter{runs: 3 * p.calRuns}
	meter.start()
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds()+median(walls)/2000 < p.seconds {
		t0 := time.Now()
		res, err := core.Run(rig.opts)
		if err != nil {
			return nil, err
		}
		wall := ms(time.Since(t0))
		walls = append(walls, wall*meter.segment())
		if first == nil {
			first = res
		}
		// Every trial must finish, and — same seed, same data, same grid —
		// reproduce the first repetition's Dice bit for bit.
		out.check(len(res.Trials) == len(first.Trials), "rep %d ran %d trials, want %d", len(walls), len(res.Trials), len(first.Trials))
		for i, tr := range res.Trials {
			ok := tr.Err == nil && tr.Status == "TERMINATED" && i < len(first.Trials) &&
				math.Float64bits(tr.Dice) == math.Float64bits(first.Trials[i].Dice)
			out.check(ok, "rep %d trial %v: status %s err %v dice %v", len(walls), tr.Config, tr.Status, tr.Err, tr.Dice)
		}
	}
	var totalMs float64
	for _, w := range walls {
		totalMs += w
	}

	samples := len(walls) * len(first.Trials) * p.campEpochs * rig.trainN
	out.metrics["samples_per_s"] = float64(samples) / (totalMs / 1000)
	out.metrics["op_ms_p50"] = median(walls)
	out.metrics["op_ms_p90"] = percentile(walls, 0.90)
	out.notes["val_dice"] = strconv.FormatFloat(first.BestDice, 'g', -1, 64)
	out.notes["ops"] = fmt.Sprintf("%s of %d trials", sampleNote(len(walls), "campaigns"), len(first.Trials))
	out.notes["speed"] = fmt.Sprintf("%.2f", median(meter.factors))
	return out, nil
}

// runCampaignTraced rebuilds the experiment-parallel campaign from the parts
// core.Run composes — a tune.Runner over the same cluster, one raysgd
// trainer per trial on a worker share — so that each trial can carry a span
// and its session the step/phase span tree. It also times the part of
// core.Run that precedes the campaign clock (data generation and
// preprocessing) on a one-trial run.
func runCampaignTraced(p params, rec *recorder) (*outcome, error) {
	out := newOutcome()
	trainSet, val, err := campaignData(p)
	if err != nil {
		return nil, err
	}
	space, err := campaignSpace()
	if err != nil {
		return nil, err
	}
	configs, err := space.GridConfigs()
	if err != nil {
		return nil, err
	}
	tune.SortConfigs(configs)
	cl, err := cluster.ForGPUs(campaignGPUs)
	if err != nil {
		return nil, err
	}
	runner, err := tune.NewRunner(cl, nil, "dice", "max")
	if err != nil {
		return nil, err
	}
	slots := cl.TotalGPUs()
	if len(configs) < slots {
		slots = len(configs)
	}
	shares := parallel.ShareN(0, slots)
	free := make(chan int, slots) // one token per trial slot
	for i := 0; i < slots; i++ {
		free <- i
	}

	root := rec.begin(wlCampaignExperiment, 0, wlCampaignExperiment)
	run := rec.begin("tune.Run", root, "")
	var mu sync.Mutex
	var trialMs []float64
	t0 := time.Now()
	analysis, err := runner.Run(configs, func(ctx *tune.TrialContext) error {
		slot := <-free
		defer func() { free <- slot }()
		span := rec.begin("trial", run, "")
		start := time.Now()
		defer func() {
			rec.end(span)
			mu.Lock()
			trialMs = append(trialMs, ms(time.Since(start)))
			mu.Unlock()
		}()
		tr, err := raysgd.New(raysgd.Config{
			Cluster: cl, GPUs: 1, Net: p.net(),
			Loss: ctx.Trial.Config.Str("loss"), Optimizer: ctx.Trial.Config.Str("optimizer"),
			BaseLR: ctx.Trial.Config.Float("lr"), BatchPerReplica: p.batch,
			Seed: p.sub("campaign"), Workers: shares[slot],
		})
		if err != nil {
			return err
		}
		probe := &stepProbe{rec: rec, parent: span}
		probe.attach(tr.Strategy())
		probe.onEpoch = func(_ *train.Session, st train.EpochStats) error {
			ctx.Report(st.Epoch, map[string]float64{"dice": st.ValDice})
			return nil
		}
		sess, err := tr.NewSession(p.campEpochs, probe)
		if err != nil {
			return err
		}
		_, err = sess.Fit(trainSet, val)
		return err
	})
	wall := time.Since(t0)
	rec.end(run)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	for _, tr := range analysis.Trials {
		out.check(tr.Err() == nil, "traced trial %v: %v", tr.Config, tr.Err())
	}

	var busy float64
	for _, t := range trialMs {
		busy += t
	}
	out.metrics["tune.trial_ms_p50"] = median(trialMs)
	out.metrics["tune.slot_idle_share"] = 1 - busy/(float64(slots)*ms(wall))
	if best := analysis.Best(); best != nil {
		out.metrics["tune.best_dice"], _ = best.BestMetric("dice", "max")
	}
	out.notes["tune_slots"] = strconv.Itoa(slots)

	one, err := oneTrialSpace()
	if err != nil {
		return nil, err
	}
	opts := campaignOptions(p, core.StrategyExperiment, one)
	opts.Epochs = 1
	// Each run costs a whole trial, hence fewer repetitions than the cheap
	// probes get.
	var prep []float64
	for i := 0; i < (p.probeReps+1)/2; i++ {
		t0 := time.Now()
		res, err := core.Run(opts)
		if err != nil {
			return nil, err
		}
		prep = append(prep, ms(time.Since(t0)-res.Elapsed))
	}
	out.metrics["core.prepare_ms"] = median(prep)
	return out, nil
}
