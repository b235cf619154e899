package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/volume"
)

// stepProbe is the one train.Callback the benchmark installs: it times every
// step and evaluation from the outside (OnStepBegin → OnStepEnd, OnEvalBegin
// → OnEpochEnd) and, when a recorder is attached, also records the
// epoch → step → phase span tree, the scratch-pool and heap-allocation
// counts per step, and the phase durations the strategy's observer reports.
type stepProbe struct {
	train.NopCallback

	rec    *recorder   // nil = timing only
	parent int         // span the epochs hang under
	meter  *speedMeter // when set, each epoch's times are calibrated as it ends (calib.go)
	// onEpoch, when set, runs after every epoch with the probe's running
	// state; train_single uses it to stop on the clock and mark a hash.
	onEpoch func(s *train.Session, st train.EpochStats) error

	steps, evals []float64 // durations, ms
	epochsS      float64   // Σ epoch wall-clock, s (what the session spent, calibration pauses excluded)
	losses       []float64
	phases       map[string][]float64 // phase → per-step ms (traced only)
	gets, allocs []float64            // scratch-pool deltas per step (traced only)
	mallocs      []float64            // heap objects allocated per step (traced only)

	epochStart, stepStart, evalStart time.Time
	epochSteps                       int // steps recorded before this epoch began
	epochSpan                        int
	scratch0                         tensor.ScratchStats
	mallocs0                         uint64

	mu      sync.Mutex // the observer may run on a replica goroutine
	pending []phaseDur
}

type phaseDur struct {
	name string
	d    time.Duration
}

// observe is the strategy's phase observer.
func (p *stepProbe) observe(phase string, d time.Duration) {
	p.mu.Lock()
	p.pending = append(p.pending, phaseDur{phase, d})
	p.mu.Unlock()
}

// attach installs the phase observer when tracing.
func (p *stepProbe) attach(st train.Strategy) {
	if pr, ok := st.(train.PhaseReporter); ok && p.rec != nil {
		p.phases = map[string][]float64{}
		pr.SetPhaseObserver(p.observe)
	}
}

func (p *stepProbe) OnEpochBegin(*train.Session, int) error {
	p.epochSpan = p.rec.begin("epoch", p.parent, "")
	p.epochStart, p.epochSteps = time.Now(), len(p.steps)
	return nil
}

func (p *stepProbe) OnStepBegin(*train.Session, int) error {
	if p.rec != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.mallocs0 = m.Mallocs
		p.scratch0 = tensor.ScratchStatsSnapshot()
	}
	p.stepStart = time.Now()
	return nil
}

func (p *stepProbe) OnStepEnd(_ *train.Session, _ int, loss float64) error {
	end := time.Now()
	p.steps = append(p.steps, ms(end.Sub(p.stepStart)))
	p.losses = append(p.losses, loss)
	if p.rec == nil {
		return nil
	}
	sc := tensor.ScratchStatsSnapshot()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.gets = append(p.gets, float64(sc.Gets-p.scratch0.Gets))
	p.allocs = append(p.allocs, float64(sc.Allocs-p.scratch0.Allocs))
	p.mallocs = append(p.mallocs, float64(m.Mallocs-p.mallocs0))

	// Stitch the phase children end to end from the step's start: the
	// observer reports exact durations but (for the mirrored and wire
	// strategies) only once the step is over, so placement is nominal while
	// the step's self time — duration minus children — is exact.
	step := p.rec.add("step", p.epochSpan, "", p.stepStart, end)
	p.mu.Lock()
	at := p.stepStart
	for _, ph := range p.pending {
		p.phases[ph.name] = append(p.phases[ph.name], ms(ph.d))
		p.rec.add(ph.name, step, "", at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
	p.pending = p.pending[:0]
	p.mu.Unlock()
	return nil
}

func (p *stepProbe) OnEvalBegin(*train.Session, int) error {
	p.evalStart = time.Now()
	return nil
}

func (p *stepProbe) OnEpochEnd(s *train.Session, st train.EpochStats) error {
	end := time.Now()
	if !p.evalStart.IsZero() {
		p.evals = append(p.evals, ms(end.Sub(p.evalStart)))
		p.rec.add("eval", p.epochSpan, "", p.evalStart, end)
	}
	p.rec.end(p.epochSpan)
	f := 1.0
	if p.meter != nil {
		f = p.meter.segment()
		scale(p.steps[p.epochSteps:], f)
		if !p.evalStart.IsZero() {
			scale(p.evals[len(p.evals)-1:], f)
		}
	}
	p.epochsS += f * end.Sub(p.epochStart).Seconds()
	if p.onEpoch != nil {
		return p.onEpoch(s, st)
	}
	return nil
}

// fitProbe drives strategy through a train.Session under probe: the way
// every strategy is measured here, workload or layer probe, so all of them
// sit behind the same epoch/step loop. In the one-epoch probes the first
// step is the warm-up and callers read probe.steps[1:].
func fitProbe(st train.Strategy, trainSet, val []*volume.Sample, epochs, globalBatch int, seed int64, probe *stepProbe) error {
	probe.attach(st)
	sess, err := train.NewSession(train.Config{
		Strategy: st, Epochs: epochs, GlobalBatch: globalBatch, Seed: seed, Callbacks: []train.Callback{probe},
	})
	if err != nil {
		return err
	}
	_, err = sess.Fit(trainSet, val)
	return err
}

// trainRig is one built train_single instance: data, strategy and the input
// hash, warmed by one step and one evaluation.
type trainRig struct {
	train, val []*volume.Sample
	strategy   *train.Single
	inputHash  string
}

func buildTrainRig(p params) (*trainRig, error) {
	tr, va, err := p.trainData()
	if err != nil {
		return nil, err
	}
	ih := newInputHasher()
	ih.addSamples(tr)
	ih.addSamples(va)
	st, err := train.NewSingle(train.SingleConfig{Net: p.net(), Loss: "dice", Optimizer: "adam", LR: 1e-3})
	if err != nil {
		return nil, err
	}
	// Warm-up, counted as set-up: the first step and evaluation size the
	// scratch pool and the patch caches.
	in, mask, err := volume.Batch(tr[:p.batch])
	if err != nil {
		return nil, err
	}
	if _, err := st.Step(in, mask); err != nil {
		return nil, err
	}
	in, mask, err = volume.Batch(va[:1])
	if err != nil {
		return nil, err
	}
	st.Evaluate(in, mask)
	return &trainRig{train: tr, val: va, strategy: st, inputHash: ih.sum()}, nil
}

// repeatSetup runs build setupReps times and returns the last instance and
// the median calibrated build time in seconds. discard releases an instance
// that is not kept (nil when there is nothing to release).
func repeatSetup[T any](p params, build func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	secs := make([]float64, p.setupReps)
	meter := speedMeter{runs: p.calRuns}
	meter.start()
	for i := range secs {
		t0 := time.Now()
		rig, err := build()
		if err != nil {
			return kept, 0, err
		}
		secs[i] = time.Since(t0).Seconds()
		secs[i] *= meter.segment()
		if i < len(secs)-1 && discard != nil {
			discard(rig)
		}
		kept = rig
	}
	return kept, median(secs), nil
}

// runTrainSingle is the train_single workload. Untraced (rec == nil) it fits
// whole epochs until the window is used up and reports the end-to-end
// metrics; traced it fits tracedEpochs epochs with tracing off and as many
// with it on, and reports the train/tensor/parallel layer metrics and the
// tracing overhead between the two halves.
func runTrainSingle(p params, rec *recorder) (*outcome, error) {
	out := newOutcome()
	rig, setupS, err := repeatSetup(p, func() (*trainRig, error) { return buildTrainRig(p) }, nil)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS
	out.notes["input_hash"] = rig.inputHash

	fit := func(probe *stepProbe, epochs int) error {
		root := probe.rec.begin("Session.Fit", probe.parent, wlTrainSingle)
		probe.parent = root
		err := fitProbe(rig.strategy, rig.train, rig.val, epochs, p.batch, p.sub("shuffle"), probe)
		probe.rec.end(root)
		return err
	}
	verify := func(probe *stepProbe) {
		for i, l := range probe.losses {
			out.check(!math.IsNaN(l) && !math.IsInf(l, 0), "step %d loss %v is not finite", i, l)
		}
	}

	if rec == nil {
		start := time.Now()
		var firstLoss float64
		probe := &stepProbe{meter: &speedMeter{runs: p.calRuns}}
		probe.meter.start()
		probe.onEpoch = func(s *train.Session, st train.EpochStats) error {
			done := st.Epoch + 1
			if done == 1 {
				firstLoss = st.MeanLoss
			}
			if done == p.markEpoch {
				// A fixed epoch, so the hash and Dice do not depend on how
				// many epochs the clock allowed.
				out.notes["param_hash"] = dist.ParamHash(s.Strategy().Model())
				out.notes["val_dice"] = strconv.FormatFloat(st.ValDice, 'g', -1, 64)
				out.check(done == 1 || st.MeanLoss < firstLoss,
					"mean loss did not fall: epoch 1 %v, epoch %d %v", firstLoss, done, st.MeanLoss)
			}
			// Stop on a whole epoch, at the one nearest the window's end.
			perEpoch := time.Since(start).Seconds() / float64(done)
			if done >= p.markEpoch && time.Since(start).Seconds()+perEpoch/2 >= p.seconds {
				s.RequestStop("window used up")
			}
			return nil
		}
		if err := fit(probe, math.MaxInt32); err != nil {
			return nil, err
		}
		verify(probe)
		out.metrics["samples_per_s"] = float64(len(probe.steps)*p.batch) / probe.epochsS
		out.metrics["op_ms_p50"] = median(probe.steps)
		out.metrics["op_ms_p90"] = percentile(probe.steps, 0.90)
		out.notes["ops"] = fmt.Sprintf("%s, %d epochs", sampleNote(len(probe.steps), "steps"), len(probe.evals))
		out.notes["speed"] = fmt.Sprintf("%.2f", median(probe.meter.factors))
		return out, nil
	}

	plain := &stepProbe{}
	if err := fit(plain, p.tracedEpochs); err != nil {
		return nil, err
	}
	verify(plain)
	root := rec.begin(wlTrainSingle, 0, wlTrainSingle)
	traced := &stepProbe{rec: rec, parent: root}
	var lastDice float64
	traced.onEpoch = func(_ *train.Session, st train.EpochStats) error { lastDice = st.ValDice; return nil }
	err = fit(traced, p.tracedEpochs)
	rec.end(root)
	rig.strategy.SetPhaseObserver(nil)
	if err != nil {
		return nil, err
	}
	verify(traced)

	tot := rec.totals(wlTrainSingle)
	out.metrics["train.forward_ms"] = median(traced.phases["forward"])
	out.metrics["train.backward_ms"] = median(traced.phases["backward"])
	out.metrics["train.optim_ms"] = median(traced.phases["optim"])
	out.metrics["train.unattributed_share"] = share(tot["step"].own, tot["step"].total)
	out.metrics["train.eval_ms"] = median(traced.evals)
	out.metrics["train.loop_overhead_share"] = share(tot["Session.Fit"].own+tot["epoch"].own, tot["Session.Fit"].total)
	out.metrics["train.val_dice"] = lastDice
	out.metrics["trace_overhead_share"] = median(traced.steps)/median(plain.steps) - 1
	out.metrics["tensor.scratch_gets_per_step"] = median(traced.gets)
	out.metrics["tensor.scratch_allocs_per_step"] = median(traced.allocs)
	out.metrics["parallel.heap_allocs_per_step"] = median(traced.mallocs)
	return out, nil
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
