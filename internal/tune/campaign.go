package tune

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/ckpt"
)

// campaignFile is the one file a resumable campaign keeps at the root of
// its CheckpointDir, beside the per-trial directories.
const campaignFile = "campaign.json"

// campaign is the campaign file's content: every finished trial's terminal
// outcome, in ID order, and the stateful scheduler's observations. The
// runner rewrites it whole after each trial finishes, so the records and
// the scheduler state always come from the same moment. Reports round-trip
// through JSON exactly (Go prints float64 with round-trip precision).
type campaign struct {
	Trials []trialRecord `json:"trials"`
	// Scheduler names the scheduler State came from, so a campaign resumed
	// under a different scheduler never imports a foreign state.
	Scheduler string          `json:"scheduler,omitempty"`
	State     json.RawMessage `json:"state,omitempty"`
}

// trialRecord is one finished trial's terminal outcome.
type trialRecord struct {
	ID      int      `json:"id"`
	Config  string   `json:"config"` // rendered deterministically, the match key
	Status  string   `json:"status"`
	Error   string   `json:"error,omitempty"`
	Reports []Report `json:"reports"`
}

// TrialDir returns the per-trial checkpoint directory under a campaign
// directory — what TrialContext.Dir hands each trainable, and where core
// places each trial's session checkpoint.
func TrialDir(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%04d", id))
}

// readCampaign loads the campaign file under dir. A missing or undecodable
// file reads as an empty campaign, whose trials all run.
func readCampaign(dir string) *campaign {
	var c campaign
	data, err := os.ReadFile(filepath.Join(dir, campaignFile))
	if err != nil || json.Unmarshal(data, &c) != nil {
		return &campaign{}
	}
	return &c
}

// find returns the index of trial id's record, or the index it belongs at.
func (c *campaign) find(id int) (int, bool) {
	return slices.BinarySearchFunc(c.Trials, id, func(r trialRecord, want int) int { return cmp.Compare(r.ID, want) })
}

// commit records t's terminal outcome and, for a stateful scheduler, its
// state, then replaces the campaign file under dir in one atomic write.
func (c *campaign) commit(dir string, t *Trial, s Scheduler) error {
	rec := trialRecord{
		ID:      t.ID,
		Config:  renderConfig(t.Config),
		Status:  t.Status().String(),
		Reports: t.Reports(),
	}
	if err := t.Err(); err != nil {
		rec.Error = err.Error()
	}
	if i, ok := c.find(t.ID); ok {
		c.Trials[i] = rec
	} else {
		c.Trials = slices.Insert(c.Trials, i, rec)
	}
	if ss, ok := s.(StatefulScheduler); ok {
		state, err := ss.ExportState()
		if err != nil {
			return fmt.Errorf("tune: %w", err)
		}
		c.Scheduler, c.State = s.Name(), state
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	return ckpt.WriteFileAtomic(filepath.Join(dir, campaignFile), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// restoreScheduler imports the campaign's scheduler state into s,
// returning true when it did. A stateless scheduler, a state from another
// scheduler or one that fails to import leaves s untouched — the caller
// falls back to replaying restored reports.
func (c *campaign) restoreScheduler(s Scheduler) bool {
	ss, ok := s.(StatefulScheduler)
	return ok && c.Scheduler == s.Name() && ss.ImportState(c.State) == nil
}

// restoreTrial loads a prior terminal outcome for the trial, returning true
// when the trial was restored and needs no re-execution. Only successful
// terminal states restore: TERMINATED and STOPPED trials carry their full
// report history; ERRORED (and absent, mismatched or RUNNING) records leave
// the trial pending so the re-run retries it — resuming from its session
// checkpoint when the trainable wrote one.
func (c *campaign) restoreTrial(t *Trial) bool {
	i, ok := c.find(t.ID)
	if !ok || c.Trials[i].Config != renderConfig(t.Config) {
		return false
	}
	var status Status
	switch c.Trials[i].Status {
	case Terminated.String():
		status = Terminated
	case Stopped.String():
		status = Stopped
	default:
		return false
	}
	t.restore(status, c.Trials[i].Reports)
	return true
}
