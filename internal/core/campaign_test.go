package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tune"
)

func diceBits(res *Result) map[string]uint64 {
	out := map[string]uint64{}
	for _, tr := range res.Trials {
		out[renderConfig(tr.Config)] = math.Float64bits(tr.Dice)
	}
	return out
}

// editCampaign rewrites the campaign.json under dir through edit, which
// gets the decoded file: its "trials" are a []any of records.
func editCampaign(t *testing.T, dir string, edit func(file map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "campaign.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	edit(file)
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resumeCampaign runs a resumable campaign, lets damage remove part of
// what it left in the campaign directory, re-runs it over the same
// directory and requires the re-run to reproduce every trial's Dice and the
// best Dice bit for bit.
func resumeCampaign(t *testing.T, strategy Strategy, damage func(dir string)) {
	t.Helper()
	dir := t.TempDir()
	opts := smallOptions(strategy, 2)
	opts.Epochs = 2
	opts.CheckpointDir = dir

	res1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := diceBits(res1)
	for _, tr := range res1.Trials {
		if tr.Err != nil {
			t.Fatalf("trial %v errored: %v", tr.Config, tr.Err)
		}
	}
	// Every trial left a session checkpoint in its trial directory.
	for i := range res1.Trials {
		p := filepath.Join(tune.TrialDir(dir, i), "session.ckpt")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing session checkpoint for trial %d: %v", i, err)
		}
	}
	damage(dir)

	res2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := diceBits(res2)
	if len(got) != len(want) {
		t.Fatalf("trial count %d, want %d", len(got), len(want))
	}
	for cfg, bits := range want {
		if got[cfg] != bits {
			t.Errorf("trial %s: resumed dice bits %#x, want %#x", cfg, got[cfg], bits)
		}
	}
	if math.Float64bits(res2.BestDice) != math.Float64bits(res1.BestDice) {
		t.Fatalf("best dice diverged: %v vs %v", res2.BestDice, res1.BestDice)
	}
}

// TestCampaignRunResumeBitIdentical: a campaign re-run over its checkpoint
// directory must reproduce the first run's results bit-for-bit — completed
// trials restore from their records, and a trial whose record was lost
// (killed after its last session checkpoint, before the runner could write
// the record) re-runs from that checkpoint to the identical result.
func TestCampaignRunResumeBitIdentical(t *testing.T) {
	for _, strategy := range []Strategy{StrategyExperiment, StrategyData} {
		t.Run(string(strategy), func(t *testing.T) {
			resumeCampaign(t, strategy, func(dir string) {
				editCampaign(t, dir, func(file map[string]any) {
					trials := file["trials"].([]any)
					n := len(trials)
					trials = slices.DeleteFunc(trials, func(rec any) bool { return rec.(map[string]any)["id"] == json.Number("1") })
					if len(trials) != n-1 {
						t.Fatalf("campaign.json holds no record of trial 1: %v", file)
					}
					file["trials"] = trials
				})
			})
		})
	}
}

// TestCampaignResumeFromSessionCheckpointsOnly: a data campaign directory
// holding session checkpoints and no trial records or scheduler state — the
// layout data campaigns wrote before they ran on the tune runner — resumes
// every trial from its checkpoint, replaying its epochs' reports, to the
// same Dice.
func TestCampaignResumeFromSessionCheckpointsOnly(t *testing.T) {
	resumeCampaign(t, StrategyData, func(dir string) {
		editCampaign(t, dir, func(file map[string]any) {
			if len(file["trials"].([]any)) == 0 {
				t.Fatal("campaign.json holds no trial records")
			}
			file["trials"] = []any{}
			delete(file, "scheduler")
			delete(file, "state")
		})
	})
}

// TestCampaignResumeFromOldLayout: a campaign directory in the layout
// before campaign.json — one trial-NNNN.json record per trial and a
// scheduler.json — is not read, so every trial resumes from its session
// checkpoint to the same Dice.
func TestCampaignResumeFromOldLayout(t *testing.T) {
	resumeCampaign(t, StrategyExperiment, func(dir string) {
		editCampaign(t, dir, func(file map[string]any) {
			for _, rec := range file["trials"].([]any) {
				data, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				id, err := rec.(map[string]any)["id"].(json.Number).Int64()
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("trial-%04d.json", id)
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
		old := []byte(`{"scheduler":"fifo","state":{}}`)
		if err := os.WriteFile(filepath.Join(dir, "scheduler.json"), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "campaign.json")); err != nil {
			t.Fatal(err)
		}
	})
}

// commitSnapshots is ASHA that keeps a copy of the campaign file at each
// trial's first report. With trials in series that is the file as the
// previous trial's commit left it.
type commitSnapshots struct {
	*tune.ASHA
	dir   string
	last  int
	files [][]byte
}

func (s *commitSnapshots) OnReport(trial *tune.Trial, rep tune.Report, peers []*tune.Trial) tune.Decision {
	if trial.ID != s.last {
		s.last = trial.ID
		if data, err := os.ReadFile(filepath.Join(s.dir, "campaign.json")); err == nil {
			s.files = append(s.files, data)
		}
	}
	return s.ASHA.OnReport(trial, rep, peers)
}

// TestCampaignResumeEachCommitUnderASHA: resuming a data campaign under
// ASHA from its campaign.json as it stood after each trial's commit — and
// nothing else, so every unfinished trial trains afresh — reproduces the
// uninterrupted run's per-trial status and Dice and its best Dice bit for
// bit: each commit's records and scheduler state agree.
func TestCampaignResumeEachCommitUnderASHA(t *testing.T) {
	asha := func() *tune.ASHA { return tune.NewASHA("dice", "max", 1, 3) }
	opts := smallOptions(StrategyData, 2)
	opts.Epochs = 3
	opts.CheckpointDir = t.TempDir()
	snaps := &commitSnapshots{ASHA: asha(), dir: opts.CheckpointDir, last: -1}
	opts.Scheduler = snaps
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(filepath.Join(opts.CheckpointDir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	commits := append(snaps.files, final)
	if len(commits) != len(res.Trials) {
		t.Fatalf("%d commits captured for %d trials", len(commits), len(res.Trials))
	}
	outcome := func(res *Result) map[string]string {
		out := map[string]string{}
		for _, tr := range res.Trials {
			if tr.Err != nil {
				t.Fatalf("trial %v errored: %v", tr.Config, tr.Err)
			}
			out[renderConfig(tr.Config)] = fmt.Sprintf("%s %#x", tr.Status, math.Float64bits(tr.Dice))
		}
		return out
	}
	want := outcome(res)
	stopped := 0
	for _, tr := range res.Trials {
		if tr.Status == tune.Stopped.String() {
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatalf("ASHA stopped no trial, so no verdict is under test: %v", want)
	}

	for k, file := range commits {
		resumed := opts
		resumed.CheckpointDir = t.TempDir()
		resumed.Scheduler = asha()
		if err := os.WriteFile(filepath.Join(resumed.CheckpointDir, "campaign.json"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		res2, err := Run(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcome(res2); !maps.Equal(got, want) {
			t.Errorf("resumed after commit %d: %v, want %v", k, got, want)
		}
		if math.Float64bits(res2.BestDice) != math.Float64bits(res.BestDice) {
			t.Errorf("resumed after commit %d: best dice %v, want %v", k, res2.BestDice, res.BestDice)
		}
	}
}
