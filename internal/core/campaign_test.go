package core

import (
	"math"
	"os"
	"path/filepath"
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
				if err := os.Remove(filepath.Join(dir, "trial-0001.json")); err != nil {
					t.Fatal(err)
				}
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
		records, err := filepath.Glob(filepath.Join(dir, "trial-*.json"))
		if err != nil || len(records) == 0 {
			t.Fatalf("trial records %v (err %v)", records, err)
		}
		for _, p := range append(records, filepath.Join(dir, "scheduler.json")) {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
	})
}
