package tune

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestGridConfigsCrossProduct(t *testing.T) {
	s, err := NewSpace(Grid("a", 1, 2, 3), Grid("b", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := s.GridConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		key := fmt.Sprintf("%v-%v", c["a"], c["b"])
		if seen[key] {
			t.Fatalf("duplicate config %s", key)
		}
		seen[key] = true
	}
}

// TestGridConfigsOrder pins the order trials are launched in: dimensions in
// the order given (the first varies slowest, names are not sorted), values
// in the order given, the same slice on every call; a dimension without
// values makes the grid empty.
func TestGridConfigsOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []Dimension
		want []Config
	}{
		{"single dimension", []Dimension{Grid("env", "prod", "staging", "dev")},
			[]Config{{"env": "prod"}, {"env": "staging"}, {"env": "dev"}}},
		{"two dimensions", []Dimension{Grid("x", "a", "b"), Grid("y", 1, 2)},
			[]Config{{"x": "a", "y": 1}, {"x": "a", "y": 2}, {"x": "b", "y": 1}, {"x": "b", "y": 2}}},
		{"names not sorted", []Dimension{Grid("z", 0.3, 0.1), Grid("a", "q", "p"), Grid("m", true)},
			[]Config{
				{"z": 0.3, "a": "q", "m": true}, {"z": 0.3, "a": "p", "m": true},
				{"z": 0.1, "a": "q", "m": true}, {"z": 0.1, "a": "p", "m": true},
			}},
		{"empty dimension", []Dimension{Grid("x", "a", "b"), {Name: "none"}}, []Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSpace(tc.dims...)
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.GridConfigs()
			if err != nil {
				t.Fatal(err)
			}
			if len(first) != len(tc.want) || s.Size() != len(tc.want) {
				t.Fatalf("%d configs (Size %d), want %d", len(first), s.Size(), len(tc.want))
			}
			for i, want := range tc.want {
				if !maps.Equal(first[i], want) {
					t.Errorf("config %d = %v, want %v", i, first[i], want)
				}
			}
			again, err := s.GridConfigs()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(first, again, maps.Equal) {
				t.Errorf("second call %v, first %v", again, first)
			}
		})
	}
}

func TestPaperSpaceIs32Experiments(t *testing.T) {
	s := PaperSpace()
	if s.Size() != 32 {
		t.Fatalf("paper space size %d, want 32 (4 lr × 2 loss × 2 opt × 2 aug)", s.Size())
	}
	cfgs, err := s.GridConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 32 {
		t.Fatalf("grid %d", len(cfgs))
	}
	// Every config must carry all four axes with valid values.
	for _, c := range cfgs {
		if c.Float("lr") <= 0 {
			t.Fatal("bad lr")
		}
		if l := c.Str("loss"); l != "dice" && l != "quadratic-dice" {
			t.Fatalf("bad loss %q", l)
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Fatal("empty space must error")
	}
	if _, err := NewSpace(Grid("a", 1), Grid("a", 2)); err == nil {
		t.Fatal("duplicate axis must error")
	}
}

func TestConfigAccessors(t *testing.T) {
	c := Config{"lr": 0.1, "n": 3, "name": "x"}
	if c.Float("lr") != 0.1 || c.Float("n") != 3 {
		t.Fatal("Float accessor broken")
	}
	if c.Str("name") != "x" {
		t.Fatal("Str accessor broken")
	}
	if !c.Has("lr") || c.Has("missing") {
		t.Fatal("Has broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Float on string must panic")
			}
		}()
		c.Float("name")
	}()
}

func TestSortConfigsDeterministic(t *testing.T) {
	a := []Config{{"x": 2}, {"x": 1}, {"x": 3}}
	SortConfigs(a)
	if a[0]["x"] != 1 || a[2]["x"] != 3 {
		t.Fatalf("sorted %v", a)
	}
}

func testCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.MareNostrum(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunnerRunsAllTrials(t *testing.T) {
	cl := testCluster(t, 2)
	r, err := NewRunner(cl, nil, "dice", "max")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, _ := PaperSpace().GridConfigs()
	SortConfigs(cfgs)
	var ran int32
	analysis, err := r.Run(cfgs, func(ctx *TrialContext) error {
		atomic.AddInt32(&ran, 1)
		// Report a metric correlated with lr so Best is predictable.
		ctx.Report(1, map[string]float64{"dice": 1 - ctx.Trial.Config.Float("lr")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(ran) != 32 {
		t.Fatalf("ran %d trials", ran)
	}
	counts := analysis.StatusCounts()
	if counts[Terminated] != 32 {
		t.Fatalf("statuses %v", counts)
	}
	best := analysis.Best()
	if best == nil || best.Config.Float("lr") != 1e-5 {
		t.Fatalf("best config %v", best.Config)
	}
}

func TestRunnerConcurrencyBoundedByGPUs(t *testing.T) {
	cl := testCluster(t, 1) // 4 GPUs
	r, _ := NewRunner(cl, nil, "m", "max")
	var mu sync.Mutex
	active, peak := 0, 0
	cfgs := make([]Config, 12)
	for i := range cfgs {
		cfgs[i] = Config{"i": i}
	}
	// Trials rendezvous in pairs, proving at least two run concurrently;
	// the timeout keeps the test from hanging if they cannot.
	pair := make(chan struct{})
	_, err := r.Run(cfgs, func(ctx *TrialContext) error {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		select {
		case pair <- struct{}{}:
		case <-pair:
		case <-time.After(500 * time.Millisecond):
		}
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Fatalf("peak concurrency %d exceeds 4 GPUs", peak)
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d shows no parallelism", peak)
	}
}

func TestRunnerPlacesOneTrialPerGPU(t *testing.T) {
	cl := testCluster(t, 2)
	r, _ := NewRunner(cl, nil, "m", "max")
	var mu sync.Mutex
	inUse := map[int]bool{}
	overlap := false
	cfgs := make([]Config, 16)
	for i := range cfgs {
		cfgs[i] = Config{"i": i}
	}
	_, err := r.Run(cfgs, func(ctx *TrialContext) error {
		gpus := ctx.Trial.GPUs()
		if len(gpus) != 1 {
			t.Errorf("trial holds GPUs %v, want one", gpus)
			return nil
		}
		g := gpus[0]
		mu.Lock()
		if inUse[g] {
			overlap = true
		}
		inUse[g] = true
		mu.Unlock()
		defer func() {
			mu.Lock()
			inUse[g] = false
			mu.Unlock()
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlap {
		t.Fatal("two trials shared a GPU concurrently")
	}
}

// TestRunnerWidthTwoOnFourGPUs: trials of width 2 on one 4-GPU node run at
// most two at a time, each on two GPUs of its own, and the running trials'
// worker shares are the two disjoint slots of ShareN(budget, 2).
func TestRunnerWidthTwoOnFourGPUs(t *testing.T) {
	cl := testCluster(t, 1) // 4 GPUs
	r, _ := NewRunner(cl, nil, "m", "max")
	r.Width = 2
	r.Workers = 7 // ShareN(7, 2) = [4 3]
	var mu sync.Mutex
	active, peak := 0, 0
	inUse := map[int]bool{}
	sharesInUse := map[int]int{}
	var problems []string
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{"i": i}
	}
	pair := make(chan struct{})
	_, err := r.Run(cfgs, func(ctx *TrialContext) error {
		gpus := ctx.Trial.GPUs()
		mu.Lock()
		active++
		peak = max(peak, active)
		if len(gpus) != 2 || gpus[0] == gpus[1] {
			problems = append(problems, fmt.Sprintf("trial holds GPUs %v, want 2 distinct", gpus))
		}
		for _, g := range gpus {
			if inUse[g] {
				problems = append(problems, fmt.Sprintf("GPU %d shared by two running trials", g))
			}
			inUse[g] = true
		}
		if ctx.Workers != 4 && ctx.Workers != 3 {
			problems = append(problems, fmt.Sprintf("worker share %d, want 4 or 3", ctx.Workers))
		}
		if sharesInUse[ctx.Workers]++; sharesInUse[ctx.Workers] > 1 {
			problems = append(problems, fmt.Sprintf("share %d held by two running trials", ctx.Workers))
		}
		mu.Unlock()
		// Trials rendezvous in pairs, proving two run concurrently; the
		// timeout keeps the test from hanging if they cannot.
		select {
		case pair <- struct{}{}:
		case <-pair:
		case <-time.After(500 * time.Millisecond):
		}
		mu.Lock()
		active--
		for _, g := range gpus {
			inUse[g] = false
		}
		sharesInUse[ctx.Workers]--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2 trials of width 2 on 4 GPUs", peak)
	}
}

func TestRunnerRejectsWidthBeyondCluster(t *testing.T) {
	r, _ := NewRunner(testCluster(t, 1), nil, "m", "max")
	r.Width = 5
	if _, err := r.Run([]Config{{}}, func(*TrialContext) error { return nil }); err == nil {
		t.Fatal("width 5 on 4 GPUs must error")
	}
}

func TestRunnerIsolatesErrorsAndPanics(t *testing.T) {
	cl := testCluster(t, 1)
	r, _ := NewRunner(cl, nil, "m", "max")
	cfgs := []Config{{"kind": "ok"}, {"kind": "err"}, {"kind": "panic"}}
	analysis, err := r.Run(cfgs, func(ctx *TrialContext) error {
		switch ctx.Trial.Config.Str("kind") {
		case "err":
			return errors.New("boom")
		case "panic":
			panic("kaboom")
		}
		ctx.Report(1, map[string]float64{"m": 1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := analysis.StatusCounts()
	if counts[Terminated] != 1 || counts[Errored] != 2 {
		t.Fatalf("statuses %v", counts)
	}
	for _, tr := range analysis.Trials {
		if tr.Config.Str("kind") == "panic" {
			if tr.Err() == nil {
				t.Fatal("panic not converted to error")
			}
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	cl := testCluster(t, 1)
	if _, err := NewRunner(nil, nil, "m", "max"); err == nil {
		t.Fatal("nil cluster must error")
	}
	if _, err := NewRunner(cl, nil, "", "max"); err == nil {
		t.Fatal("empty metric must error")
	}
	if _, err := NewRunner(cl, nil, "m", "avg"); err == nil {
		t.Fatal("bad mode must error")
	}
	r, _ := NewRunner(cl, nil, "m", "max")
	if _, err := r.Run(nil, func(*TrialContext) error { return nil }); err == nil {
		t.Fatal("no configs must error")
	}
	if _, err := r.Run([]Config{{}}, nil); err == nil {
		t.Fatal("nil trainable must error")
	}
}

func TestMedianStoppingStopsLaggards(t *testing.T) {
	cl := testCluster(t, 1)
	sched := MedianStopping{Metric: "dice", Mode: "max", GracePeriod: 2, MinPeers: 2}
	r, _ := NewRunner(cl, sched, "dice", "max")
	// Quality is encoded in the config: trials 0..3 are good, 4..7 bad.
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{"q": float64(8-i) / 8}
	}
	analysis, err := r.Run(cfgs, func(ctx *TrialContext) error {
		q := ctx.Trial.Config.Float("q")
		for step := 0; step < 10; step++ {
			if !ctx.Report(step, map[string]float64{"dice": q * float64(step+1) / 10}) {
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := analysis.StatusCounts()
	if counts[Stopped] == 0 {
		t.Fatal("median stopping never fired")
	}
	// The best trial must never be stopped.
	best := analysis.Best()
	if best.Status() == Stopped {
		t.Fatal("best trial was stopped early")
	}
}

func TestASHAStopsBottomTier(t *testing.T) {
	cl := testCluster(t, 1)
	sched := NewASHA("dice", "max", 2, 2)
	r, _ := NewRunner(cl, sched, "dice", "max")
	// Quality decreases over the trial sequence, so laggards reach rungs
	// already populated by better peers.
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{"q": float64(8 - i)}
	}
	analysis, err := r.Run(cfgs, func(ctx *TrialContext) error {
		q := ctx.Trial.Config.Float("q")
		for step := 1; step <= 16; step++ {
			if !ctx.Report(step, map[string]float64{"dice": q}) {
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := analysis.StatusCounts()
	if counts[Stopped] == 0 {
		t.Fatal("ASHA never stopped a trial")
	}
	if counts[Terminated] == 0 {
		t.Fatal("ASHA stopped everything")
	}
}

func TestASHARungLadder(t *testing.T) {
	a := NewASHA("m", "max", 2, 3)
	cases := map[int]int{1: 0, 2: 2, 5: 2, 6: 6, 17: 6, 18: 18, 55: 54}
	for step, rung := range cases {
		if got := a.rungFor(step); got != rung {
			t.Fatalf("rungFor(%d) = %d, want %d", step, got, rung)
		}
	}
}

func TestTrialMetrics(t *testing.T) {
	tr := NewTrial(0, Config{})
	tr.addReport(Report{Step: 1, Metrics: map[string]float64{"d": 0.5}})
	tr.addReport(Report{Step: 2, Metrics: map[string]float64{"d": 0.8}})
	tr.addReport(Report{Step: 3, Metrics: map[string]float64{"d": 0.7}})
	if v, _ := tr.BestMetric("d", "max"); v != 0.8 {
		t.Fatalf("best max %v", v)
	}
	if v, _ := tr.BestMetric("d", "min"); v != 0.5 {
		t.Fatalf("best min %v", v)
	}
	if _, ok := tr.BestMetric("missing", "max"); ok {
		t.Fatal("missing metric must report false")
	}
}

func TestAnalysisRanked(t *testing.T) {
	a := &Analysis{Metric: "d", Mode: "max"}
	for i, v := range []float64{0.3, 0.9, 0.6} {
		tr := NewTrial(i, Config{})
		tr.addReport(Report{Step: 1, Metrics: map[string]float64{"d": v}})
		a.Trials = append(a.Trials, tr)
	}
	noMetric := NewTrial(3, Config{})
	a.Trials = append(a.Trials, noMetric)
	ranked := a.Ranked()
	if ranked[0].ID != 1 || ranked[1].ID != 2 || ranked[2].ID != 0 {
		t.Fatalf("ranking wrong: %d %d %d", ranked[0].ID, ranked[1].ID, ranked[2].ID)
	}
	if ranked[3].ID != 3 {
		t.Fatal("metric-less trial must sort last")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Pending: "PENDING", Running: "RUNNING", Terminated: "TERMINATED",
		Stopped: "STOPPED", Errored: "ERRORED",
	} {
		if s.String() != want {
			t.Fatalf("%d renders %q", s, s.String())
		}
	}
}

func TestBestMetricMathIsFinite(t *testing.T) {
	tr := NewTrial(0, Config{})
	tr.addReport(Report{Step: 1, Metrics: map[string]float64{"d": math.Inf(-1)}})
	if v, ok := tr.BestMetric("d", "max"); !ok || !math.IsInf(v, -1) {
		t.Fatal("infinities must round-trip")
	}
}
