package train

import (
	"testing"
)

// TestRepeatedFitContinuesBitIdentical is the session-reuse acceptance bar:
// fitting k epochs, extending the budget and fitting m more on one session
// must be bit-for-bit the single k+m-epoch run — cursor, history and
// optimizer state continue instead of restarting.
func TestRepeatedFitContinuesBitIdentical(t *testing.T) {
	train := samples(t, 4)
	val := samples(t, 2)

	for _, optimizer := range []string{"adam", "sgd"} {
		run := func(split bool) (*Session, uint64) {
			epochs := 4
			if split {
				epochs = 2
			}
			sess, err := NewSession(Config{
				Strategy:    singleStrategy(t, optimizer, 1),
				Epochs:      epochs,
				GlobalBatch: 2,
				Seed:        21,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Fit(train, val); err != nil {
				t.Fatal(err)
			}
			if split {
				if err := sess.ExtendEpochs(2); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Fit(train, val); err != nil {
					t.Fatal(err)
				}
			}
			return sess, fingerprint(sess.Strategy().Model())
		}

		straight, wantHash := run(false)
		resumed, gotHash := run(true)
		if gotHash != wantHash {
			t.Fatalf("%s: split Fit (2+2) params differ from one 4-epoch run", optimizer)
		}
		if resumed.Epoch() != straight.Epoch() || resumed.Step() != straight.Step() {
			t.Fatalf("%s: cursor (epoch %d step %d) != straight run (epoch %d step %d)",
				optimizer, resumed.Epoch(), resumed.Step(), straight.Epoch(), straight.Step())
		}
		hs, hr := straight.History(), resumed.History()
		if len(hr) != len(hs) {
			t.Fatalf("%s: history length %d != %d", optimizer, len(hr), len(hs))
		}
		for i := range hs {
			if hs[i] != hr[i] {
				t.Fatalf("%s: history[%d] %+v != %+v", optimizer, i, hr[i], hs[i])
			}
		}
	}
}

// TestExtendEpochsValidation rejects non-positive extensions.
func TestExtendEpochsValidation(t *testing.T) {
	sess, err := NewSession(Config{Strategy: singleStrategy(t, "sgd", 1), Epochs: 1, GlobalBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ExtendEpochs(0); err == nil {
		t.Fatal("ExtendEpochs(0) accepted")
	}
	if err := sess.ExtendEpochs(-2); err == nil {
		t.Fatal("ExtendEpochs(-2) accepted")
	}
	if err := sess.ExtendEpochs(3); err != nil {
		t.Fatal(err)
	}
	if got := sess.EpochBudget(); got != 4 {
		t.Fatalf("budget %d after 1+3, want 4", got)
	}
}

// TestClearStopReleasesLatch: a stopped session refuses further epochs until
// ClearStop, then trains again.
func TestClearStopReleasesLatch(t *testing.T) {
	train := samples(t, 2)
	sess, err := NewSession(Config{Strategy: singleStrategy(t, "sgd", 1), Epochs: 1, GlobalBatch: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess.RequestStop("test")
	if _, err := sess.Fit(train, nil); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != 0 {
		t.Fatalf("stopped session ran %d epochs", sess.Epoch())
	}
	sess.ClearStop()
	if stopped, _ := sess.Stopped(); stopped {
		t.Fatal("still stopped after ClearStop")
	}
	if _, err := sess.Fit(train, nil); err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() != 1 {
		t.Fatalf("cleared session ran %d epochs, want 1", sess.Epoch())
	}
}
