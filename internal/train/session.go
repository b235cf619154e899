package train

import (
	"fmt"

	"repro/internal/augment"
	"repro/internal/pipeline"
	"repro/internal/volume"
)

// Config describes a training session.
type Config struct {
	// Strategy owns the model replicas and the per-step update (required).
	Strategy Strategy
	// Epochs is the total epoch budget. A resumed session counts from its
	// checkpointed epoch cursor towards the same budget.
	Epochs int
	// GlobalBatch is the per-step batch size over all replicas.
	GlobalBatch int
	// Seed drives the per-epoch shuffle (Seed+epoch); augmentation streams
	// derive from the epoch and sample index. No other RNG state exists, so
	// the epoch cursor fully determines the input pipeline.
	Seed int64
	// Augment optionally transforms training samples each epoch; nil trains
	// on the raw samples.
	Augment *augment.Pipeline
	// Callbacks fire in order at every hook point; a callback error aborts
	// the session.
	Callbacks []Callback
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
	ValDice  float64
	Steps    int
}

// Session owns the canonical epoch/step loop: shuffle, batch, strategy
// step, evaluate, with callbacks at every phase boundary. Every training
// run — a core campaign trial, a dist worker, the online controller —
// drives training through it.
type Session struct {
	cfg   Config
	epoch int // next epoch to run — the resume cursor
	step  int // global optimizer step
	// stepInEpoch/partialLoss form the mid-epoch cursor: the number of
	// steps completed inside the current (unfinished) epoch and their loss
	// sum. Both reset to zero when the epoch completes, so an epoch-end
	// checkpoint carries no partial state and a step-end checkpoint carries
	// exactly what Fit needs to fast-forward the reseeded shuffle iterator.
	stepInEpoch int
	partialLoss float64
	history     []EpochStats
	stopped     bool
	stopWhy     string
}

// NewSession validates the configuration and builds an idle session.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("train: nil strategy")
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("train: Epochs must be ≥ 0, got %d", cfg.Epochs)
	}
	if cfg.GlobalBatch < 1 {
		return nil, fmt.Errorf("train: GlobalBatch must be ≥ 1, got %d", cfg.GlobalBatch)
	}
	return &Session{cfg: cfg}, nil
}

// Strategy returns the session's distribution strategy.
func (s *Session) Strategy() Strategy { return s.cfg.Strategy }

// EpochBudget returns the session's current total epoch budget.
func (s *Session) EpochBudget() int { return s.cfg.Epochs }

// ExtendEpochs raises the epoch budget by n, so a session whose budget is
// exhausted can keep training — the continual-learning reuse path: one
// long-lived session fits repeatedly over refreshed datasets, and every Fit
// continues the epoch/step cursor, history and optimizer state exactly
// where the previous call stopped. Fitting k then extending by m and
// fitting again is bit-identical to one k+m-epoch run over the same data
// (the per-epoch shuffle depends only on Seed+epoch).
func (s *Session) ExtendEpochs(n int) error {
	if n <= 0 {
		return fmt.Errorf("train: ExtendEpochs needs a positive extension, got %d", n)
	}
	s.cfg.Epochs += n
	return nil
}

// ClearStop clears a previously requested stop so a later Fit can run.
// Callers that reuse one session across Fit calls (the online controller)
// reset the early-stop latch between calls; resume-replay
// paths (ResumeFromFile with a report that declines) intentionally leave
// it set.
func (s *Session) ClearStop() { s.stopped, s.stopWhy = false, "" }

// Epoch returns the number of completed epochs (the resume cursor).
func (s *Session) Epoch() int { return s.epoch }

// Step returns the global optimizer-step counter.
func (s *Session) Step() int { return s.step }

// StepInEpoch returns the number of steps completed inside the current
// unfinished epoch — non-zero only between a mid-epoch restore (or step)
// and the end of that epoch.
func (s *Session) StepInEpoch() int { return s.stepInEpoch }

// History returns the per-epoch statistics recorded so far (including
// epochs restored from a checkpoint).
func (s *Session) History() []EpochStats {
	out := make([]EpochStats, len(s.history))
	copy(out, s.history)
	return out
}

// RequestStop asks the loop to stop after the current epoch. Early-stopping
// callbacks and the experiment layer's report protocol use it.
func (s *Session) RequestStop(reason string) {
	if !s.stopped {
		s.stopped = true
		s.stopWhy = reason
	}
}

// Stopped reports whether a stop was requested and why.
func (s *Session) Stopped() (bool, string) { return s.stopped, s.stopWhy }

// fire runs one hook across the callback chain in order.
func (s *Session) fire(hook func(Callback) error) error {
	for _, cb := range s.cfg.Callbacks {
		if err := hook(cb); err != nil {
			return err
		}
	}
	return nil
}

// Fit trains from the session's epoch cursor to the epoch budget,
// evaluating on val after each epoch, and returns the last epoch's
// statistics. A freshly built session starts at epoch 0; one restored with
// LoadCheckpointFile continues where the checkpoint was taken, bit-for-bit
// as if it had never stopped.
func (s *Session) Fit(train, val []*volume.Sample) (*EpochStats, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	if err := s.fire(func(cb Callback) error { return cb.OnTrainBegin(s) }); err != nil {
		return nil, err
	}
	last := EpochStats{}
	if n := len(s.history); n > 0 {
		last = s.history[n-1]
	}
	startEpoch := s.epoch
	for epoch := s.epoch; epoch < s.cfg.Epochs && !s.stopped; epoch++ {
		if err := s.fire(func(cb Callback) error { return cb.OnEpochBegin(s, epoch) }); err != nil {
			return nil, err
		}
		epochSamples := train
		if s.cfg.Augment != nil {
			epochSamples = s.cfg.Augment.ApplyAll(train, epoch)
		}
		ds := pipeline.FromSlice(epochSamples)
		ds = pipeline.Shuffle(ds, len(epochSamples), s.cfg.Seed+int64(epoch))
		batches := pipeline.Batch(ds, s.cfg.GlobalBatch, true)

		var lossSum float64
		steps := 0
		skip := 0
		if epoch == startEpoch && s.stepInEpoch > 0 {
			// Mid-epoch resume: the shuffle stream is fully determined by
			// Seed+epoch, so fast-forwarding past the completed steps lands
			// on exactly the batch the checkpointed run would see next.
			skip = s.stepInEpoch
			steps = skip
			lossSum = s.partialLoss
		}
		it := batches.Iterate()
		for {
			batch, ok := it.Next()
			if !ok {
				break
			}
			if skip > 0 {
				skip--
				continue
			}
			inputs, masks, err := volume.Batch(batch)
			if err != nil {
				it.Close()
				return nil, err
			}
			if err := s.fire(func(cb Callback) error { return cb.OnStepBegin(s, s.step) }); err != nil {
				it.Close()
				return nil, err
			}
			l, err := s.cfg.Strategy.Step(inputs, masks)
			if err != nil {
				it.Close()
				return nil, err
			}
			// Advance every cursor before OnStepEnd fires, so a step-granular
			// checkpoint written from that hook includes the step it follows.
			stepIdx := s.step
			lossSum += l
			steps++
			s.step++
			s.stepInEpoch = steps
			s.partialLoss = lossSum
			if err := s.fire(func(cb Callback) error { return cb.OnStepEnd(s, stepIdx, l) }); err != nil {
				it.Close()
				return nil, err
			}
		}
		it.Close()
		if skip > 0 {
			return nil, fmt.Errorf("train: mid-epoch cursor %d beyond the epoch's %d batches", s.stepInEpoch, steps-skip)
		}
		if steps == 0 {
			return nil, fmt.Errorf("train: global batch %d larger than training set %d", s.cfg.GlobalBatch, len(train))
		}
		s.stepInEpoch, s.partialLoss = 0, 0

		stats := EpochStats{Epoch: epoch, MeanLoss: lossSum / float64(steps), Steps: steps}
		if len(val) > 0 {
			if err := s.fire(func(cb Callback) error { return cb.OnEvalBegin(s, epoch) }); err != nil {
				return nil, err
			}
			dice, err := s.Evaluate(val)
			if err != nil {
				return nil, err
			}
			stats.ValDice = dice
		}
		s.epoch = epoch + 1
		s.history = append(s.history, stats)
		last = stats
		if err := s.fire(func(cb Callback) error { return cb.OnEpochEnd(s, stats) }); err != nil {
			return nil, err
		}
	}
	if err := s.fire(func(cb Callback) error { return cb.OnTrainEnd(s) }); err != nil {
		return nil, err
	}
	return &last, nil
}

// Evaluate returns the mean validation Dice of the current model over the
// samples, one full-volume inference at a time (as in the paper).
func (s *Session) Evaluate(val []*volume.Sample) (float64, error) {
	if len(val) == 0 {
		return 0, fmt.Errorf("train: empty evaluation set")
	}
	var sum float64
	for i, sm := range val {
		in, mask, err := volume.Batch([]*volume.Sample{sm})
		if err != nil {
			return 0, fmt.Errorf("train: validation sample %d: %w", i, err)
		}
		sum += s.cfg.Strategy.Evaluate(in, mask)
	}
	return sum / float64(len(val)), nil
}
