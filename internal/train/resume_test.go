package train

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mirrored"
)

// stopAfter requests a stop once the given number of epochs completed —
// the test stand-in for a preempted job.
type stopAfter struct {
	NopCallback
	epochs int
}

func (c *stopAfter) OnEpochEnd(s *Session, stats EpochStats) error {
	if stats.Epoch+1 >= c.epochs {
		s.RequestStop("preempted")
	}
	return nil
}

// TestResumeBitIdentical is the acceptance test for session-state
// persistence: training N epochs straight must equal checkpoint-at-k +
// resume parameter-for-parameter (and optimizer-moment-for-moment), under
// multiple worker budgets and both strategies, with the stateful Adam
// optimizer and momentum SGD.
func TestResumeBitIdentical(t *testing.T) {
	const totalEpochs, stopAt = 4, 2
	strategies := map[string]func(*testing.T, string, int) Strategy{
		"single":   singleStrategy,
		"mirrored": mirroredStrategy,
	}
	for _, sname := range []string{"single", "mirrored"} {
		for _, optimizer := range []string{"adam", "sgd"} {
			for _, workers := range []int{1, 3} {
				name := "gemm/" + sname + "/" + optimizer + "/w" + string(rune('0'+workers))
				t.Run(name, func(t *testing.T) {
					build := func(w int) Strategy { return strategies[sname](t, optimizer, w) }
					trainSet, val := samples(t, 4), samples(t, 2)

					// Straight run: totalEpochs without interruption.
					straight := build(workers)
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

					// Interrupted run: checkpoint every epoch, stop at stopAt.
					path := filepath.Join(t.TempDir(), "session.ckpt")
					first := build(workers)
					sess1, err := NewSession(Config{
						Strategy: first, Epochs: totalEpochs, GlobalBatch: 2, Seed: 3,
						Callbacks: []Callback{
							&PeriodicCheckpoint{Path: path, Every: 1},
							&stopAfter{epochs: stopAt},
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := sess1.Fit(trainSet, val); err != nil {
						t.Fatal(err)
					}
					if sess1.Epoch() != stopAt {
						t.Fatalf("interrupted run completed %d epochs, want %d", sess1.Epoch(), stopAt)
					}

					// Resume in a fresh process stand-in: new strategy (fresh
					// weights and optimizer), possibly a different worker
					// budget — results are worker-count invariant.
					resumeWorkers := workers
					if sname == "single" {
						resumeWorkers = workers%3 + 1 // resume under a different budget
					}
					second := build(resumeWorkers)
					sess2, err := NewSession(Config{Strategy: second, Epochs: totalEpochs, GlobalBatch: 2, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					if err := sess2.LoadCheckpointFile(path); err != nil {
						t.Fatal(err)
					}
					if sess2.Epoch() != stopAt {
						t.Fatalf("restored cursor %d, want %d", sess2.Epoch(), stopAt)
					}
					gotLast, err := sess2.Fit(trainSet, val)
					if err != nil {
						t.Fatal(err)
					}

					if got := fingerprint(second.Model()); got != wantFP {
						t.Fatalf("resumed parameters diverge: %#x, want %#x", got, wantFP)
					}
					if m, ok := second.(*mirrored.Trainer); ok && !m.InSync() {
						t.Fatal("resumed replicas out of sync")
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
}

// TestResumeOfFinishedSessionIsNoop: loading the checkpoint of a completed
// session and fitting again runs zero epochs and returns the final stats —
// how campaign re-runs skip completed trials cheaply.
func TestResumeOfFinishedSessionIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	trainSet, val := samples(t, 4), samples(t, 2)

	first := singleStrategy(t, "adam", 1)
	sess1, err := NewSession(Config{
		Strategy: first, Epochs: 2, GlobalBatch: 2, Seed: 3,
		Callbacks: []Callback{&PeriodicCheckpoint{Path: path, Every: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess1.Fit(trainSet, val)
	if err != nil {
		t.Fatal(err)
	}

	second := singleStrategy(t, "adam", 1)
	sess2, err := NewSession(Config{Strategy: second, Epochs: 2, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := sess2.Fit(trainSet, val)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("no-op resume stats %+v, want %+v", *got, *want)
	}
	if fingerprint(second.Model()) != fingerprint(first.Model()) {
		t.Fatal("no-op resume changed parameters")
	}
}

// TestCursorSurvivesBeyondFloat32: the epoch/step cursor is stored in the
// float64 state namespace, so step counters past 2^24 (where float32
// rounds) restore exactly.
func TestCursorSurvivesBeyondFloat32(t *testing.T) {
	const bigStep = 1<<24 + 3 // not representable as float32
	path := filepath.Join(t.TempDir(), "session.ckpt")
	first := singleStrategy(t, "sgd", 1)
	sess1, err := NewSession(Config{Strategy: first, Epochs: 1, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess1.step = bigStep
	if _, err := sess1.Fit(samples(t, 4), nil); err != nil {
		t.Fatal(err)
	}
	if err := sess1.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	second := singleStrategy(t, "sgd", 1)
	sess2, err := NewSession(Config{Strategy: second, Epochs: 1, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if sess2.Step() != sess1.Step() || sess2.Step() != bigStep+2 {
		t.Fatalf("restored step %d, want %d", sess2.Step(), bigStep+2)
	}
}

// TestLoadCheckpointValidation: a session checkpoint refuses to load when
// its cursor exceeds the session budget or it holds another optimizer's
// state.
func TestLoadCheckpointValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	strat := singleStrategy(t, "adam", 1)
	sess, err := NewSession(Config{
		Strategy: strat, Epochs: 3, GlobalBatch: 2, Seed: 3,
		Callbacks: []Callback{&PeriodicCheckpoint{Path: path, Every: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(samples(t, 4), nil); err != nil {
		t.Fatal(err)
	}

	// A fresh session with a smaller budget than the checkpoint cursor.
	short, err := NewSession(Config{Strategy: singleStrategy(t, "adam", 1), Epochs: 1, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := short.LoadCheckpointFile(path); err == nil {
		t.Fatal("cursor beyond the budget must be rejected")
	}

	// A wrong-optimizer session must fail with a named error.
	wrongOpt, err := NewSession(Config{Strategy: singleStrategy(t, "sgd", 1), Epochs: 3, GlobalBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongOpt.LoadCheckpointFile(path); err == nil {
		t.Fatal("adam checkpoint into sgd session must be rejected")
	}
}

// TestResumeFromParentLayoutCheckpoint pins checkpoint compatibility across
// the move of the U-Net's body sites onto nn.ConvBNReLU: the fixture is a
// session checkpoint written after epoch 2 of 4 by the commit before that
// move (standalone conv / batch-norm / ReLU fields; gemm engine, Adam, one
// worker, the seeds below), together with the fingerprints that commit's own
// runs printed. Today's network must expose the same parameter names in the
// same order and the same auxiliary-state keys for it to load at all, and
// must compute the same bits for the resumed run to land on the straight
// run's fingerprint.
func TestResumeFromParentLayoutCheckpoint(t *testing.T) {
	const (
		fixture       = "testdata/session_parent_layout.ckpt"
		atCheckpoint  = uint64(0x4b6a57aefea8b88a) // parameters + running statistics after epoch 2
		straightFinal = uint64(0xc4594b74ed283a9)  // … after 4 uninterrupted epochs
	)
	trainSet, val := samples(t, 4), samples(t, 2)
	for _, workers := range []int{1, 2} {
		strat := singleStrategy(t, "adam", workers)
		sess, err := NewSession(Config{Strategy: strat, Epochs: 4, GlobalBatch: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.LoadCheckpointFile(fixture); err != nil {
			t.Fatalf("the parent commit's checkpoint no longer loads: %v", err)
		}
		if got := fingerprint(strat.Model()); got != atCheckpoint || sess.Epoch() != 2 {
			t.Fatalf("workers=%d: restored fingerprint %#x at epoch %d, want %#x at epoch 2",
				workers, got, sess.Epoch(), atCheckpoint)
		}
		if _, err := sess.Fit(trainSet, val); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(strat.Model()); got != straightFinal {
			t.Fatalf("workers=%d: resumed to %#x, want the parent's straight-run %#x", workers, got, straightFinal)
		}
	}
}
