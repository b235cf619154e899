package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// trialRecord is the on-disk terminal outcome of one trial, written under
// the runner's CheckpointDir so a re-run of the same campaign can restore
// finished trials instead of re-training them. Reports round-trip through
// JSON exactly (Go prints float64 with round-trip precision).
type trialRecord struct {
	ID      int      `json:"id"`
	Config  string   `json:"config"` // rendered deterministically, the match key
	Status  string   `json:"status"`
	Error   string   `json:"error,omitempty"`
	Reports []Report `json:"reports"`
}

// trialRecordPath returns the record file for trial id under dir.
func trialRecordPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%04d.json", id))
}

// TrialDir returns the per-trial checkpoint directory under a campaign
// directory — what TrialContext.Dir hands each trainable, and where core
// places each trial's session checkpoint.
func TrialDir(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%04d", id))
}

// writeTrialRecord persists a trial's terminal outcome atomically.
func writeTrialRecord(dir string, t *Trial) error {
	rec := trialRecord{
		ID:      t.ID,
		Config:  renderConfig(t.Config),
		Status:  t.Status().String(),
		Reports: t.Reports(),
	}
	if err := t.Err(); err != nil {
		rec.Error = err.Error()
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	path := trialRecordPath(dir, t.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tune: %w", err)
	}
	return nil
}

// schedulerStatePath returns the persisted scheduler-state file under a
// campaign directory.
func schedulerStatePath(dir string) string {
	return filepath.Join(dir, "scheduler.json")
}

// schedulerStateFile wraps an exported scheduler state with the scheduler's
// name, so a campaign resumed under a different scheduler never imports a
// foreign state.
type schedulerStateFile struct {
	Scheduler string          `json:"scheduler"`
	State     json.RawMessage `json:"state"`
}

// writeSchedulerState persists a stateful scheduler's observations
// atomically; stateless schedulers are a no-op.
func writeSchedulerState(dir string, s Scheduler) error {
	ss, ok := s.(StatefulScheduler)
	if !ok {
		return nil
	}
	state, err := ss.ExportState()
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	data, err := json.MarshalIndent(schedulerStateFile{Scheduler: s.Name(), State: state}, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	path := schedulerStatePath(dir)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tune: %w", err)
	}
	return nil
}

// loadSchedulerState restores a stateful scheduler from the campaign
// directory, returning true when a matching state was imported. A missing
// file, a name mismatch or a decode failure leaves the scheduler untouched
// — the caller falls back to replaying restored reports.
func loadSchedulerState(dir string, s Scheduler) bool {
	ss, ok := s.(StatefulScheduler)
	if !ok {
		return false
	}
	data, err := os.ReadFile(schedulerStatePath(dir))
	if err != nil {
		return false
	}
	var file schedulerStateFile
	if err := json.Unmarshal(data, &file); err != nil || file.Scheduler != s.Name() {
		return false
	}
	return ss.ImportState(file.State) == nil
}

// restoreTrial loads a prior terminal outcome for the trial, returning true
// when the trial was restored and needs no re-execution. Only successful
// terminal states restore: TERMINATED and STOPPED trials carry their full
// report history; ERRORED (and absent, mismatched or RUNNING) records leave
// the trial pending so the re-run retries it — resuming from its session
// checkpoint when the trainable wrote one.
func restoreTrial(dir string, t *Trial) bool {
	data, err := os.ReadFile(trialRecordPath(dir, t.ID))
	if err != nil {
		return false
	}
	var rec trialRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return false
	}
	if rec.ID != t.ID || rec.Config != renderConfig(t.Config) {
		return false
	}
	var status Status
	switch rec.Status {
	case Terminated.String():
		status = Terminated
	case Stopped.String():
		status = Stopped
	default:
		return false
	}
	t.restore(status, rec.Reports)
	return true
}
