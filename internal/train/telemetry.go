package train

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// PhaseReporter is implemented by strategies that can attribute step time
// to inner phases (forward, backward, allreduce, optim). The observer must
// be cheap and safe to call from the strategy's goroutines; Telemetry
// installs one that feeds the per-phase histograms.
type PhaseReporter interface {
	SetPhaseObserver(fn func(phase string, d time.Duration))
}

// phaseNames are the per-phase histogram children: the loop-level phases
// the session itself can time (shuffle, step, eval) plus the inner step
// phases a PhaseReporter strategy attributes (forward, backward,
// allreduce, optim, and — on the overlapped dist path, where the gradient
// reduction runs concurrently with backward — comm_wait, the time the step
// stalls on the reducer after backward has finished).
var phaseNames = []string{"shuffle", "step", "eval", "forward", "backward", "allreduce", "optim", "comm_wait"}

// Telemetry is the observability callback: it times every phase of the
// canonical loop into a telemetry registry (per-phase duration histograms,
// step/epoch/checkpoint counters, loss/Dice/LR gauges) and, when a tracer
// is attached, emits one structured step record per optimizer step and an
// event per epoch and checkpoint. If the strategy implements
// PhaseReporter, forward/backward/allreduce/optim time inside each step is
// attributed too. Construct with NewTelemetry and append to
// Config.Callbacks.
type Telemetry struct {
	NopCallback
	tracer *telemetry.Tracer

	steps       *telemetry.Counter
	epochs      *telemetry.Counter
	checkpoints *telemetry.Counter
	lastLoss    *telemetry.Gauge
	valDice     *telemetry.Gauge
	lr          *telemetry.Gauge
	phases      map[string]*telemetry.Histogram

	epoch      int
	epochStart time.Time
	stepStart  time.Time
	evalStart  time.Time
	firstStep  bool
	installed  bool
}

// NewTelemetry registers the training metrics in reg (nil means the
// process-wide default registry) and routes trace records to tracer (nil
// disables tracing — the callback still maintains metrics).
func NewTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Telemetry {
	if reg == nil {
		reg = telemetry.Default()
	}
	t := &Telemetry{
		tracer:      tracer,
		steps:       reg.Counter("train_steps_total", "optimizer steps completed"),
		epochs:      reg.Counter("train_epochs_total", "training epochs completed"),
		checkpoints: reg.Counter("train_checkpoints_total", "session checkpoints written"),
		lastLoss:    reg.Gauge("train_last_loss", "loss of the most recent optimizer step"),
		valDice:     reg.Gauge("train_val_dice", "validation Dice of the most recent epoch"),
		lr:          reg.Gauge("train_lr", "learning rate in effect at the most recent epoch end"),
		phases:      map[string]*telemetry.Histogram{},
	}
	vec := reg.HistogramVec("train_phase_ns", "per-phase training time in nanoseconds",
		telemetry.GeometricDurationBounds(10*time.Microsecond, 1000*time.Second, 60),
		"phase", phaseNames...)
	for _, p := range phaseNames {
		t.phases[p] = vec.With(p)
	}
	return t
}

// observePhase feeds one phase duration into its histogram. Unknown phase
// names from a custom strategy are dropped rather than exploding label
// cardinality.
func (t *Telemetry) observePhase(phase string, d time.Duration) {
	if h, ok := t.phases[phase]; ok {
		h.ObserveDuration(d)
	}
}

// tracePhase additionally emits the phase as a span record — used for the
// loop-level phases that are sparse enough to trace (shuffle, eval); the
// per-step phases go through StepRecord instead.
func (t *Telemetry) tracePhase(phase string, d time.Duration) {
	t.observePhase(phase, d)
	t.tracer.Emit(telemetry.Record{Kind: telemetry.KindSpan, Name: phase, Dur: d.Nanoseconds()})
}

// OnTrainBegin implements Callback: install the phase observer on a
// PhaseReporter strategy and mark the run start.
func (t *Telemetry) OnTrainBegin(s *Session) error {
	if pr, ok := s.Strategy().(PhaseReporter); ok && !t.installed {
		pr.SetPhaseObserver(func(phase string, d time.Duration) {
			h, ok := t.phases[phase]
			if !ok {
				return
			}
			h.ObserveDuration(d)
		})
		t.installed = true
	}
	t.tracer.Event("train_begin",
		"epoch", strconv.Itoa(s.Epoch()),
		"step", strconv.Itoa(s.Step()),
		"replicas", strconv.Itoa(s.Strategy().Replicas()))
	return nil
}

// OnEpochBegin implements Callback.
func (t *Telemetry) OnEpochBegin(s *Session, epoch int) error {
	t.epoch = epoch
	t.epochStart = time.Now()
	t.firstStep = true
	return nil
}

// OnStepBegin implements Callback: the gap between epoch begin and the
// epoch's first step is the input phase — the reseeded shuffle and the
// first batch's flips and assembly.
func (t *Telemetry) OnStepBegin(s *Session, step int) error {
	if t.firstStep {
		t.firstStep = false
		t.tracePhase("shuffle", time.Since(t.epochStart))
	}
	t.stepStart = time.Now()
	return nil
}

// OnStepEnd implements Callback.
func (t *Telemetry) OnStepEnd(s *Session, step int, loss float64) error {
	d := time.Since(t.stepStart)
	t.observePhase("step", d)
	t.steps.Inc()
	t.lastLoss.Set(loss)
	t.tracer.StepRecord("step", step, t.epoch, d,
		"loss", strconv.FormatFloat(loss, 'g', -1, 64))
	return nil
}

// OnEvalBegin implements Callback.
func (t *Telemetry) OnEvalBegin(s *Session, epoch int) error {
	t.evalStart = time.Now()
	return nil
}

// OnEpochEnd implements Callback.
func (t *Telemetry) OnEpochEnd(s *Session, stats EpochStats) error {
	if !t.evalStart.IsZero() {
		t.tracePhase("eval", time.Since(t.evalStart))
		t.evalStart = time.Time{}
	}
	t.epochs.Inc()
	t.valDice.Set(stats.ValDice)
	t.lr.Set(s.Strategy().LR())
	t.tracer.Event("epoch_end",
		"epoch", strconv.Itoa(stats.Epoch),
		"steps", strconv.Itoa(stats.Steps),
		"mean_loss", strconv.FormatFloat(stats.MeanLoss, 'g', -1, 64),
		"val_dice", strconv.FormatFloat(stats.ValDice, 'g', -1, 64))
	return nil
}

// OnCheckpoint implements Callback.
func (t *Telemetry) OnCheckpoint(s *Session, path string) error {
	t.checkpoints.Inc()
	t.tracer.Event("checkpoint", "path", path, "step", strconv.Itoa(s.Step()))
	return nil
}

// OnTrainEnd implements Callback.
func (t *Telemetry) OnTrainEnd(s *Session) error {
	stopped, why := s.Stopped()
	kv := []string{"epoch", strconv.Itoa(s.Epoch()), "step", strconv.Itoa(s.Step())}
	if stopped {
		kv = append(kv, "stopped", why)
	}
	t.tracer.Event("train_end", kv...)
	return nil
}
