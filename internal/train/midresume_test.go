package train

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

var errCrash = errors.New("simulated crash")

// crashAtStep aborts the session from OnStepEnd once the global step index
// reaches the target — the test stand-in for a killed process. It must be
// registered after StepCheckpoint so the checkpoint of the crashing step is
// already on disk, exactly like a real kill between two steps.
type crashAtStep struct {
	NopCallback
	step int
}

func (c *crashAtStep) OnStepEnd(s *Session, step int, loss float64) error {
	if step >= c.step {
		return errCrash
	}
	return nil
}

// TestMidEpochResumeBitIdentical is the acceptance test for the
// step-granular checkpoint cursor: crash in the middle of an epoch, resume
// from the per-step checkpoint in a fresh session, and finish bit-for-bit
// identical to a run that never crashed — under both strategies, including
// a crash on an epoch's final step (cursor at the epoch boundary).
func TestMidEpochResumeBitIdentical(t *testing.T) {
	const totalEpochs = 3 // 4 steps per epoch: 8 samples / global batch 2
	strategies := map[string]func(*testing.T, string, int) Strategy{
		"single":   singleStrategy,
		"mirrored": mirroredStrategy,
	}
	crashes := map[string]int{
		"mid-epoch":      5, // step 5 = second step of epoch 1
		"epoch-boundary": 3, // step 3 = final step of epoch 0
	}
	for sname, build := range strategies {
		for cname, crashStep := range crashes {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				trainSet, val := samples(t, 8), samples(t, 2)

				straight := build(t, "adam", 1)
				sess, err := NewSession(Config{Strategy: straight, Epochs: totalEpochs, GlobalBatch: 2, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				wantLast, err := sess.Fit(trainSet, val)
				if err != nil {
					t.Fatal(err)
				}
				wantFP := fingerprint(straight.Model())
				wantOpt, err := straight.ExportOptimState()
				if err != nil {
					t.Fatal(err)
				}
				wantHist := sess.History()

				// Crashing run: checkpoint after every step, die mid-epoch.
				path := filepath.Join(t.TempDir(), "session.ckpt")
				first := build(t, "adam", 1)
				sess1, err := NewSession(Config{
					Strategy: first, Epochs: totalEpochs, GlobalBatch: 2, Seed: 3,
					Callbacks: []Callback{
						&StepCheckpoint{Path: path, EverySteps: 1},
						&crashAtStep{step: crashStep},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess1.Fit(trainSet, val); !errors.Is(err, errCrash) {
					t.Fatalf("crashing run returned %v, want simulated crash", err)
				}

				// Resume in a fresh process stand-in.
				second := build(t, "adam", 1)
				sess2, err := NewSession(Config{Strategy: second, Epochs: totalEpochs, GlobalBatch: 2, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess2.LoadCheckpointFile(path); err != nil {
					t.Fatal(err)
				}
				wantEpoch, wantInEpoch := crashStep/4, crashStep%4+1
				if sess2.Epoch() != wantEpoch || sess2.StepInEpoch() != wantInEpoch {
					t.Fatalf("restored cursor epoch=%d stepInEpoch=%d, want %d/%d",
						sess2.Epoch(), sess2.StepInEpoch(), wantEpoch, wantInEpoch)
				}
				if sess2.Step() != crashStep+1 {
					t.Fatalf("restored global step %d, want %d", sess2.Step(), crashStep+1)
				}
				gotLast, err := sess2.Fit(trainSet, val)
				if err != nil {
					t.Fatal(err)
				}

				if got := fingerprint(second.Model()); got != wantFP {
					t.Fatalf("resumed parameters diverge: %#x, want %#x", got, wantFP)
				}
				gotOpt, err := second.ExportOptimState()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotOpt, wantOpt) {
					t.Fatal("resumed optimizer state diverges from the straight run")
				}
				if *gotLast != *wantLast {
					t.Fatalf("last stats %+v, want %+v", *gotLast, *wantLast)
				}
				if !reflect.DeepEqual(sess2.History(), wantHist) {
					t.Fatalf("history %+v, want %+v", sess2.History(), wantHist)
				}
			})
		}
	}
}

// TestMidEpochCursorBeyondDataset: a mid-epoch cursor pointing past the
// epoch's batch count fails with a clear error instead of silently training
// a truncated epoch.
func TestMidEpochCursorBeyondDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	strat := singleStrategy(t, "adam", 1)
	sess1, err := NewSession(Config{
		Strategy: strat, Epochs: 2, GlobalBatch: 2, Seed: 3,
		Callbacks: []Callback{
			&StepCheckpoint{Path: path, EverySteps: 1},
			&crashAtStep{step: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Fit(samples(t, 8), nil); !errors.Is(err, errCrash) {
		t.Fatal(err)
	}

	// Resume against a smaller dataset: epoch 1's cursor (2 steps) now
	// exceeds its batch count (1 batch of 2 from 3 samples).
	second := singleStrategy(t, "adam", 1)
	sess2, err := NewSession(Config{Strategy: second, Epochs: 2, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Fit(samples(t, 3), nil); err == nil {
		t.Fatal("cursor beyond the epoch's batches must be rejected")
	}
}
