package train

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/ckpt"
)

// Session-state keys inside the checkpoint's float64 namespace. The
// optimizer's own keys ("adam.*", "sgd.*") share the namespace; the
// "session." prefix keeps them disjoint.
const (
	histLossKey  = "session.hist.loss"
	histDiceKey  = "session.hist.dice"
	histStepsKey = "session.hist.steps"
	histEpochKey = "session.hist.epoch"
	// The epoch/step cursor.
	cursorEpochKey = "session.epoch"
	cursorStepKey  = "session.step"
	// The mid-epoch cursor: steps completed inside the (unfinished) epoch
	// named by cursorEpochKey, and their running loss sum. Absent in
	// epoch-granular checkpoints from older sessions — restore treats
	// absence as zero, keeping old checkpoints loadable.
	cursorStepInEpochKey = "session.stepinepoch"
	cursorPartialLossKey = "session.partialloss"
)

// checkpointState assembles the full session state: optimizer internals
// from the strategy plus the metric history, all as float64 slices stored
// bit-exactly.
func (s *Session) checkpointState() (map[string][]float64, error) {
	state, err := s.cfg.Strategy.ExportOptimState()
	if err != nil {
		return nil, err
	}
	n := len(s.history)
	loss := make([]float64, n)
	dice := make([]float64, n)
	steps := make([]float64, n)
	epochs := make([]float64, n)
	for i, st := range s.history {
		loss[i] = st.MeanLoss
		dice[i] = st.ValDice
		steps[i] = float64(st.Steps)
		epochs[i] = float64(st.Epoch)
	}
	state[histLossKey] = loss
	state[histDiceKey] = dice
	state[histStepsKey] = steps
	state[histEpochKey] = epochs
	state[cursorEpochKey] = []float64{float64(s.epoch)}
	state[cursorStepKey] = []float64{float64(s.step)}
	state[cursorStepInEpochKey] = []float64{float64(s.stepInEpoch)}
	state[cursorPartialLossKey] = []float64{s.partialLoss}
	return state, nil
}

// SaveCheckpoint writes the complete session state — model parameters,
// auxiliary state, optimizer moments and counters, epoch/step cursor and
// metric history — to w. Everything float-valued round-trips bit-exactly.
func (s *Session) SaveCheckpoint(w io.Writer) error {
	state, err := s.checkpointState()
	if err != nil {
		return err
	}
	return ckpt.Save(w, s.cfg.Strategy.Model(), state)
}

// SaveCheckpointFile writes a session checkpoint to path atomically and
// fires the OnCheckpoint hook.
func (s *Session) SaveCheckpointFile(path string) error {
	state, err := s.checkpointState()
	if err != nil {
		return err
	}
	if err := ckpt.SaveFile(path, s.cfg.Strategy.Model(), state); err != nil {
		return err
	}
	return s.fire(func(cb Callback) error { return cb.OnCheckpoint(s, path) })
}

// LoadCheckpoint restores a session from a checkpoint written by
// SaveCheckpoint: model parameters and auxiliary state load into replica 0
// and broadcast to the others, optimizer state loads into every replica,
// and the epoch/step cursor and history are re-established. The next Fit
// continues bit-identically to a session that never stopped.
func (s *Session) LoadCheckpoint(r io.Reader) error {
	state, err := ckpt.Load(r, s.cfg.Strategy.Model())
	if err != nil {
		return err
	}
	return s.restore(state)
}

// LoadCheckpointFile restores a session from a checkpoint file.
func (s *Session) LoadCheckpointFile(path string) error {
	state, err := ckpt.LoadFile(path, s.cfg.Strategy.Model())
	if err != nil {
		return err
	}
	return s.restore(state)
}

// ResumeFromFile restores the session from path when a checkpoint exists
// there, returning whether one did. Restored epochs are replayed through
// report (when non-nil) — the experiment layer's per-epoch protocol — so a
// scheduler observes the same stream as an uninterrupted run; report
// returning false requests a stop, exactly as a live report would.
func (s *Session) ResumeFromFile(path string, report func(EpochStats) bool) (bool, error) {
	if _, err := os.Stat(path); err != nil {
		return false, nil
	}
	if err := s.LoadCheckpointFile(path); err != nil {
		return false, err
	}
	if report != nil {
		for _, st := range s.history {
			if !report(st) {
				s.RequestStop("report")
				break
			}
		}
	}
	return true, nil
}

func (s *Session) restore(state map[string][]float64) error {
	epochS, ok := state[cursorEpochKey]
	if !ok || len(epochS) != 1 {
		return fmt.Errorf("train: not a session checkpoint (no %s state)", cursorEpochKey)
	}
	stepS := state[cursorStepKey]
	if len(stepS) != 1 {
		return fmt.Errorf("train: not a session checkpoint (no %s state)", cursorStepKey)
	}
	epoch := int(epochS[0])
	step := int(stepS[0])
	if epoch < 0 || epoch > s.cfg.Epochs {
		return fmt.Errorf("train: checkpoint epoch %d outside the session's budget of %d", epoch, s.cfg.Epochs)
	}
	stepInEpoch, partialLoss := 0, 0.0
	if v := state[cursorStepInEpochKey]; len(v) == 1 {
		stepInEpoch = int(v[0])
	}
	if v := state[cursorPartialLossKey]; len(v) == 1 {
		partialLoss = v[0]
	}
	if stepInEpoch < 0 {
		return fmt.Errorf("train: negative mid-epoch cursor %d", stepInEpoch)
	}
	if stepInEpoch > 0 && epoch >= s.cfg.Epochs {
		return fmt.Errorf("train: mid-epoch cursor inside epoch %d, but the session budget is %d", epoch, s.cfg.Epochs)
	}

	loss := state[histLossKey]
	dice := state[histDiceKey]
	steps := state[histStepsKey]
	epochs := state[histEpochKey]
	if len(dice) != len(loss) || len(steps) != len(loss) || len(epochs) != len(loss) {
		return fmt.Errorf("train: checkpoint history arrays disagree on length")
	}
	history := make([]EpochStats, len(loss))
	for i := range history {
		history[i] = EpochStats{
			Epoch:    int(epochs[i]),
			MeanLoss: loss[i],
			ValDice:  dice[i],
			Steps:    int(steps[i]),
		}
	}

	optState := make(map[string][]float64, len(state))
	for k, v := range state {
		if strings.HasPrefix(k, "session.") {
			continue
		}
		optState[k] = v
	}
	strat := s.cfg.Strategy
	strat.BroadcastParams()
	if err := strat.ImportOptimState(optState); err != nil {
		return err
	}
	s.epoch = epoch
	s.step = step
	s.stepInEpoch = stepInEpoch
	s.partialLoss = partialLoss
	s.history = history
	return nil
}
