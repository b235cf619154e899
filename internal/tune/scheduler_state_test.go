package tune

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
)

// TestASHAStateRoundTrip: export → import into a fresh scheduler preserves
// rung populations and verdicts exactly, including the judged-rung dedup
// (a re-imported trial re-reporting the same rung gets its recorded verdict
// and is not counted again).
func TestASHAStateRoundTrip(t *testing.T) {
	a1 := NewASHA("dice", "max", 2, 2)
	trials := []*Trial{NewTrial(0, Config{}), NewTrial(1, Config{}), NewTrial(2, Config{})}
	dice := []float64{0.9, 0.8, 0.1}
	for i, tr := range trials {
		a1.OnReport(tr, Report{Step: 2, Metrics: map[string]float64{"dice": dice[i]}}, trials)
	}

	state, err := a1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	a2 := NewASHA("dice", "max", 2, 2)
	if err := a2.ImportState(state); err != nil {
		t.Fatal(err)
	}
	state2, err := a2.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != string(state2) {
		t.Fatalf("state changed across round trip:\n%s\n%s", state, state2)
	}

	// A restored trial re-reporting its judged rung must not be re-counted
	// or re-judged: 0.1 ranked bottom once already, so the dedup answers
	// that StopTrial again without recording the value a second time.
	if d := a2.OnReport(trials[2], Report{Step: 2, Metrics: map[string]float64{"dice": 0.1}}, trials); d != StopTrial {
		t.Fatalf("re-reported judged rung: got %v, want the recorded StopTrial", d)
	}
	if state3, _ := a2.ExportState(); string(state3) != string(state) {
		t.Fatalf("re-reported judged rung changed the state:\n%s\n%s", state, state3)
	}
	// A new trial at the same rung is judged against the restored population.
	weak := NewTrial(3, Config{})
	if d := a2.OnReport(weak, Report{Step: 2, Metrics: map[string]float64{"dice": 0.2}}, trials); d != StopTrial {
		t.Fatalf("new bottom-half trial against restored rung: got %v, want StopTrial", d)
	}

	if err := a2.ImportState([]byte("{not json")); err == nil {
		t.Fatal("garbage state must be rejected")
	}
	// A state that lists judged rungs without their verdicts cannot answer
	// a repeated report; it must fail, leaving the scheduler as it was.
	before, _ := a2.ExportState()
	if err := a2.ImportState([]byte(`{"rungs":{"2":[0.9,0.8]},"judged":{"0":[2],"1":[2]}}`)); err == nil {
		t.Fatal("a state without verdicts must be rejected")
	}
	if after, _ := a2.ExportState(); string(after) != string(before) {
		t.Fatalf("rejected state changed the scheduler:\n%s\n%s", before, after)
	}
}

// TestCampaignResumeKeepsASHAVerdict: a trial that ASHA stopped at a rung
// and that then failed re-runs on resume, and its repeated rung report must
// get the same stop, so the campaign ends as the uninterrupted one does.
func TestCampaignResumeKeepsASHAVerdict(t *testing.T) {
	// One GPU: trial 0 (0.9) reports first, so trial 1's 0.1 lands below
	// the rung's 0.9 cut.
	cl, err := cluster.ForGPUs(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{"dice": 0.9}, {"dice": 0.1}}
	run := func(dir string, failAfterStop bool) *Analysis {
		t.Helper()
		r, err := NewRunner(cl, NewASHA("dice", "max", 2, 2), "dice", "max")
		if err != nil {
			t.Fatal(err)
		}
		r.CheckpointDir = dir
		a, err := r.Run(cfgs, func(ctx *TrialContext) error {
			if !ctx.Report(2, map[string]float64{"dice": ctx.Trial.Config.Float("dice")}) && failAfterStop {
				return errors.New("simulated failure after the stop")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	if got := run(t.TempDir(), false).Trials[1].Status(); got != Stopped {
		t.Fatalf("uninterrupted campaign: trial 1 is %v, want %v", got, Stopped)
	}
	dir := t.TempDir()
	if got := run(dir, true).Trials[1].Status(); got != Errored {
		t.Fatalf("first run: trial 1 is %v, want %v", got, Errored)
	}
	if got := run(dir, false).Trials[1].Status(); got != Stopped {
		t.Fatalf("resumed campaign: trial 1 is %v, want %v", got, Stopped)
	}
}

// TestCampaignStateWithoutVerdictsReplays: a campaign file whose ASHA state
// has no verdicts is not imported, so the runner falls back to replaying
// the restored trials' reports.
func TestCampaignStateWithoutVerdictsReplays(t *testing.T) {
	dir := t.TempDir()
	old := []byte(`{"trials":[],"scheduler":"asha","state":{"rungs":{"2":[0.9]},"judged":{"0":[2]}}}`)
	if err := os.WriteFile(filepath.Join(dir, campaignFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if readCampaign(dir).restoreScheduler(NewASHA("dice", "max", 2, 2)) {
		t.Fatal("a state without verdicts must not be imported")
	}
}

// TestCampaignPersistsSchedulerState: a resumed ASHA campaign restores the
// scheduler from the state in campaign.json, which carries evidence replay
// cannot reconstruct — reports from trials that died without a terminal
// record. The new trial's verdict flips on exactly that evidence.
func TestCampaignPersistsSchedulerState(t *testing.T) {
	// One GPU: trials run one at a time in config order, so every report
	// meets the rung population the comments below describe.
	cl, err := cluster.ForGPUs(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// dice by trial: 0→0.8 (finishes), 1→0.9 (finishes), 2→0.85 (dies
	// before reporting; runs first on resume), 3→0.95 (reports, then dies;
	// re-runs after trial 2 on resume).
	cfgs := []Config{{"dice": 0.8}, {"dice": 0.9}, {"dice": 0.85}, {"dice": 0.95}}

	r1, err := NewRunner(cl, NewASHA("dice", "max", 2, 2), "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r1.CheckpointDir = dir
	_, err = r1.Run(cfgs, func(ctx *TrialContext) error {
		d := ctx.Trial.Config.Float("dice")
		if d == 0.85 {
			return errors.New("simulated preemption")
		}
		ctx.Report(2, map[string]float64{"dice": d})
		if d == 0.95 {
			return errors.New("simulated preemption")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := readCampaign(dir); c.Scheduler != "asha" || len(c.State) == 0 {
		t.Fatalf("scheduler state not persisted: %q %s", c.Scheduler, c.State)
	}

	// Resume with a fresh ASHA. The persisted rung holds {0.8, 0.9, 0.95};
	// trial 2's 0.85 lands below the 0.9 cut and must stop. Replay of
	// terminal records alone would see only {0.8, 0.9} — a rung whose cut
	// is 0.85, where the trial survives — so a stop proves the persisted
	// state was used, 0.95 coming from a trial that died without a record and
	// re-reports only after trial 2.
	r2, err := NewRunner(cl, NewASHA("dice", "max", 2, 2), "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r2.CheckpointDir = dir
	a2, err := r2.Run(cfgs, func(ctx *TrialContext) error {
		d := ctx.Trial.Config.Float("dice")
		cont := ctx.Report(2, map[string]float64{"dice": d})
		if d == 0.85 && cont {
			t.Error("trial 2 must be stopped against the restored rung population")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts := a2.StatusCounts(); counts[Stopped] != 1 {
		t.Fatalf("statuses %v, want exactly 1 stopped", counts)
	}
}

// TestSchedulerStateNameMismatchIgnored: a scheduler state in campaign.json
// written by a different scheduler must not be imported.
func TestSchedulerStateNameMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	trial := NewTrial(0, Config{})
	asha := NewASHA("dice", "max", 2, 2)
	asha.OnReport(trial, Report{Step: 2, Metrics: map[string]float64{"dice": 0.5}}, nil)
	if err := (&campaign{}).commit(dir, trial, asha); err != nil {
		t.Fatal(err)
	}

	if !readCampaign(dir).restoreScheduler(NewASHA("dice", "max", 2, 2)) {
		t.Fatal("matching scheduler name must load")
	}

	// A campaign file claiming a different scheduler: no import.
	bad := []byte(`{"trials":[],"scheduler":"fifo","state":{}}`)
	if err := os.WriteFile(filepath.Join(dir, campaignFile), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if readCampaign(dir).restoreScheduler(NewASHA("dice", "max", 2, 2)) {
		t.Fatal("foreign scheduler state must be ignored")
	}

	// Stateless schedulers neither write nor load.
	stateless := t.TempDir()
	if err := (&campaign{}).commit(stateless, trial, FIFO{}); err != nil {
		t.Fatal(err)
	}
	if c := readCampaign(stateless); c.Scheduler != "" || c.State != nil {
		t.Fatalf("stateless scheduler wrote state %q %s", c.Scheduler, c.State)
	}
	if readCampaign(dir).restoreScheduler(FIFO{}) {
		t.Fatal("stateless scheduler cannot load state")
	}
}
