package train

// Callback observes and steers a Session. Hooks fire in callback order at
// every phase boundary of the canonical loop; returning an error aborts the
// session. Embed NopCallback and override only the hooks you need.
type Callback interface {
	// OnTrainBegin fires once when Fit starts (after a resume, the session
	// already carries its restored history and counters).
	OnTrainBegin(s *Session) error
	// OnEpochBegin fires before an epoch's first step.
	OnEpochBegin(s *Session, epoch int) error
	// OnStepBegin fires before each optimizer step with the global step
	// index — the learning-rate schedule hook.
	OnStepBegin(s *Session, step int) error
	// OnStepEnd fires after each optimizer step with its loss.
	OnStepEnd(s *Session, step int, loss float64) error
	// OnEvalBegin fires between an epoch's training phase and its
	// validation phase.
	OnEvalBegin(s *Session, epoch int) error
	// OnEpochEnd fires after validation with the epoch's statistics; this
	// is where reporting and periodic checkpointing live.
	OnEpochEnd(s *Session, stats EpochStats) error
	// OnCheckpoint fires after a session checkpoint has been written.
	OnCheckpoint(s *Session, path string) error
	// OnTrainEnd fires once when the loop exits (budget reached or stop
	// requested), before Fit returns.
	OnTrainEnd(s *Session) error
}

// NopCallback implements every Callback hook as a no-op.
type NopCallback struct{}

// OnTrainBegin implements Callback.
func (NopCallback) OnTrainBegin(*Session) error { return nil }

// OnEpochBegin implements Callback.
func (NopCallback) OnEpochBegin(*Session, int) error { return nil }

// OnStepBegin implements Callback.
func (NopCallback) OnStepBegin(*Session, int) error { return nil }

// OnStepEnd implements Callback.
func (NopCallback) OnStepEnd(*Session, int, float64) error { return nil }

// OnEvalBegin implements Callback.
func (NopCallback) OnEvalBegin(*Session, int) error { return nil }

// OnEpochEnd implements Callback.
func (NopCallback) OnEpochEnd(*Session, EpochStats) error { return nil }

// OnCheckpoint implements Callback.
func (NopCallback) OnCheckpoint(*Session, string) error { return nil }

// OnTrainEnd implements Callback.
func (NopCallback) OnTrainEnd(*Session) error { return nil }

// PeriodicCheckpoint writes the full session state to Path every Every
// epochs (and after the final epoch), making the session resumable.
type PeriodicCheckpoint struct {
	NopCallback
	Path  string
	Every int // epochs between checkpoints; ≤ 1 means every epoch
}

// OnEpochEnd implements Callback.
func (p *PeriodicCheckpoint) OnEpochEnd(s *Session, stats EpochStats) error {
	every := p.Every
	if every < 1 {
		every = 1
	}
	if (stats.Epoch+1)%every == 0 || stats.Epoch+1 == s.cfg.Epochs {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// OnTrainEnd implements Callback: a session stopped early persists its
// final state too.
func (p *PeriodicCheckpoint) OnTrainEnd(s *Session) error {
	if stopped, _ := s.Stopped(); stopped && s.Epoch() > 0 {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// StepCheckpoint writes the full session state every EverySteps optimizer
// steps — the step-granular cursor that lets an elastic worker rejoin a
// distributed run losing at most EverySteps−1 steps instead of an epoch.
// The checkpoint fires from OnStepEnd, after the session has advanced its
// cursors, so the saved state includes the step it follows; restoring it
// starts the reseeded epoch order at the next batch.
type StepCheckpoint struct {
	NopCallback
	Path       string
	EverySteps int // steps between checkpoints; ≤ 1 means every step
}

// OnStepEnd implements Callback.
func (p *StepCheckpoint) OnStepEnd(s *Session, step int, loss float64) error {
	every := p.EverySteps
	if every < 1 {
		every = 1
	}
	if (step+1)%every == 0 {
		return s.SaveCheckpointFile(p.Path)
	}
	return nil
}

// reportFunc adapts the experiment layer's per-epoch reporting protocol:
// the function sees each epoch's statistics and returns false to stop the
// session (Ray.Tune's "reporting callback function").
type reportFunc struct {
	NopCallback
	fn func(EpochStats) bool
}

// ReportFunc wraps a per-epoch report function as a Callback; the function
// returning false requests a stop.
func ReportFunc(fn func(EpochStats) bool) Callback {
	return &reportFunc{fn: fn}
}

// OnEpochEnd implements Callback.
func (r *reportFunc) OnEpochEnd(s *Session, stats EpochStats) error {
	if !r.fn(stats) {
		s.RequestStop("report")
	}
	return nil
}
