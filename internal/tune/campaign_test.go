package tune

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func campaignConfigs(t *testing.T) []Config {
	t.Helper()
	space, err := NewSpace(
		Grid("lr", 0.01, 0.02, 0.03),
		Grid("optimizer", "adam", "sgd"),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := space.GridConfigs()
	if err != nil {
		t.Fatal(err)
	}
	SortConfigs(cfgs)
	return cfgs
}

// TestCampaignResumeSkipsCompletedTrials: a campaign interrupted after some
// trials finished (modelled by one trial erroring like a preempted job)
// restores the finished trials — status, reports and all — and re-runs only
// the unfinished one on the next Run with the same directory.
func TestCampaignResumeSkipsCompletedTrials(t *testing.T) {
	cl := testCluster(t, 2)
	dir := t.TempDir()
	cfgs := campaignConfigs(t)

	// First pass: trial with lr=0.02/adam dies mid-flight.
	r1, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r1.CheckpointDir = dir
	preempted := func(cfg Config) bool {
		return cfg.Float("lr") == 0.02 && cfg.Str("optimizer") == "adam"
	}
	a1, err := r1.Run(cfgs, func(ctx *TrialContext) error {
		cfg := ctx.Trial.Config
		ctx.Report(0, map[string]float64{"dice": cfg.Float("lr")})
		if preempted(cfg) {
			return errors.New("simulated preemption")
		}
		ctx.Report(1, map[string]float64{"dice": 2 * cfg.Float("lr")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := a1.StatusCounts()
	if counts[Terminated] != 5 || counts[Errored] != 1 {
		t.Fatalf("first pass statuses %v", counts)
	}

	// Second pass, same directory: only the preempted trial re-executes.
	r2, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r2.CheckpointDir = dir
	var mu sync.Mutex
	var executed []Config
	a2, err := r2.Run(cfgs, func(ctx *TrialContext) error {
		mu.Lock()
		executed = append(executed, ctx.Trial.Config)
		mu.Unlock()
		cfg := ctx.Trial.Config
		ctx.Report(0, map[string]float64{"dice": cfg.Float("lr")})
		ctx.Report(1, map[string]float64{"dice": 2 * cfg.Float("lr")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 1 || !preempted(executed[0]) {
		t.Fatalf("re-executed %v, want exactly the preempted trial", executed)
	}
	counts = a2.StatusCounts()
	if counts[Terminated] != 6 {
		t.Fatalf("second pass statuses %v", counts)
	}
	// Restored trials keep their full report history.
	for _, tr := range a2.Trials {
		if len(tr.Reports()) != 2 {
			t.Fatalf("trial %d has %d reports, want 2", tr.ID, len(tr.Reports()))
		}
		if d, ok := tr.BestMetric("dice", "max"); !ok || d != 2*tr.Config.Float("lr") {
			t.Fatalf("trial %d best dice %v", tr.ID, d)
		}
	}

	// Third pass: everything restored, nothing executes.
	r3, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r3.CheckpointDir = dir
	ran := false
	if _, err := r3.Run(cfgs, func(ctx *TrialContext) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("fully recorded campaign must not execute any trial")
	}
}

// TestCampaignReplayFeedsStatefulScheduler: restored trials' reports must
// repopulate a stateful scheduler's internals (ASHA's rungs), so decisions
// about trials re-run after a resume rest on the full campaign evidence.
func TestCampaignReplayFeedsStatefulScheduler(t *testing.T) {
	cl := testCluster(t, 1)
	dir := t.TempDir()
	cfgs := []Config{{"lr": 0.01}, {"lr": 0.02}, {"lr": 0.03}, {"lr": 0.04}}
	strongDice := map[float64]float64{0.01: 0.9, 0.02: 0.8, 0.03: 0.7, 0.04: 0.1}

	// First pass (FIFO): the three strong trials finish with reports at the
	// ASHA rung step; the weak one is preempted before reporting.
	r1, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r1.CheckpointDir = dir
	_, err = r1.Run(cfgs, func(ctx *TrialContext) error {
		lr := ctx.Trial.Config.Float("lr")
		if lr == 0.04 {
			return errors.New("simulated preemption")
		}
		ctx.Report(2, map[string]float64{"dice": strongDice[lr]})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Second pass under ASHA (MinT=2, η=2): only the weak trial re-runs.
	// Its rung-2 report of 0.1 ranks bottom-half against the three replayed
	// values {0.9, 0.8, 0.7}, so ASHA must stop it — which can only happen
	// if the restored reports were fed back into the scheduler (a bare
	// one-value rung returns Continue for lack of evidence).
	r2, err := NewRunner(cl, NewASHA("dice", "max", 2, 2), "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r2.CheckpointDir = dir
	a2, err := r2.Run(cfgs, func(ctx *TrialContext) error {
		lr := ctx.Trial.Config.Float("lr")
		if ctx.Report(2, map[string]float64{"dice": strongDice[lr]}) {
			t.Errorf("weak trial lr=%v must be stopped at the rung", lr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts := a2.StatusCounts(); counts[Stopped] != 1 || counts[Terminated] != 3 {
		t.Fatalf("statuses %v, want 3 terminated + 1 stopped", counts)
	}
}

// TestCampaignConfigMismatchReruns: records guard against silently reusing
// results for a different configuration at the same trial index.
func TestCampaignConfigMismatchReruns(t *testing.T) {
	cl := testCluster(t, 1)
	dir := t.TempDir()

	run := func(cfgs []Config) (int, error) {
		r, err := NewRunner(cl, nil, "dice", "max")
		if err != nil {
			t.Fatal(err)
		}
		r.CheckpointDir = dir
		n := 0
		var mu sync.Mutex
		_, err = r.Run(cfgs, func(ctx *TrialContext) error {
			mu.Lock()
			n++
			mu.Unlock()
			ctx.Report(0, map[string]float64{"dice": 0.5})
			return nil
		})
		return n, err
	}

	if n, err := run([]Config{{"lr": 0.01}}); err != nil || n != 1 {
		t.Fatalf("first run executed %d (err %v)", n, err)
	}
	// Same index, different config: must re-run, then overwrite the record.
	if n, err := run([]Config{{"lr": 0.07}}); err != nil || n != 1 {
		t.Fatalf("mismatched config executed %d (err %v)", n, err)
	}
	if n, err := run([]Config{{"lr": 0.07}}); err != nil || n != 0 {
		t.Fatalf("matching re-run executed %d (err %v)", n, err)
	}
}

// TestTrialDirPlacement: trainables get a stable per-trial directory under
// the campaign root, and none without a campaign.
func TestTrialDirPlacement(t *testing.T) {
	cl := testCluster(t, 1)
	dir := t.TempDir()
	r, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	r.CheckpointDir = dir
	var got string
	_, err = r.Run([]Config{{"lr": 0.01}}, func(ctx *TrialContext) error {
		d, err := ctx.Dir()
		if err != nil {
			return err
		}
		got = d
		return os.WriteFile(filepath.Join(d, "marker"), []byte("x"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := TrialDir(dir, 0); got != want {
		t.Fatalf("trial dir %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(got, "marker")); err != nil {
		t.Fatal("trial dir not writable:", err)
	}

	// No campaign: Dir is empty.
	r2, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r2.Run([]Config{{"lr": 0.01}}, func(ctx *TrialContext) error {
		d, err := ctx.Dir()
		if err != nil || d != "" {
			t.Errorf("dir %q err %v, want empty", d, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLogSpacedGrid: the log-scale grid helper pins its endpoints exactly
// and spaces interior points geometrically.
func TestLogSpacedGrid(t *testing.T) {
	d := LogSpaced("lr", 1e-2, 3e-2, 5)
	vals := d.Values
	if len(vals) != 5 {
		t.Fatalf("%d values", len(vals))
	}
	if vals[0].(float64) != 1e-2 || vals[4].(float64) != 3e-2 {
		t.Fatalf("endpoints %v, %v", vals[0], vals[4])
	}
	// Constant ratio between neighbours (log spacing), within float noise.
	r0 := vals[1].(float64) / vals[0].(float64)
	for i := 1; i < 4; i++ {
		r := vals[i+1].(float64) / vals[i].(float64)
		if r/r0 < 0.999999 || r/r0 > 1.000001 {
			t.Fatalf("ratio %v at %d, want %v", r, i, r0)
		}
	}
	for _, bad := range []func(){
		func() { LogSpaced("x", 0, 1, 3) },
		func() { LogSpaced("x", 2, 1, 3) },
		func() { LogSpaced("x", 1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid LogSpaced must panic")
				}
			}()
			bad()
		}()
	}
}
