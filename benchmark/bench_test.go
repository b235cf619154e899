package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := percentile(xs, 0.90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs[:3], 0.90); got != 9 {
		t.Errorf("p90 of three = %v, want their maximum 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(msec int) time.Time { return r.epoch.Add(time.Duration(msec) * time.Millisecond) }
	root := r.add("step", 0, "w", at(0), at(100))
	r.add("forward", root, "", at(0), at(30))
	r.add("backward", root, "", at(30), at(70))
	r.add("allreduce", root, "", at(50), at(80))     // overlaps backward: counted once
	other := r.add("step", 0, "w", at(100), at(150)) // no children: all self
	r.add("late", other, "", at(140), at(170))       // clipped to its parent's end
	r.finish()

	want := map[int]time.Duration{root: 20 * time.Millisecond, other: 40 * time.Millisecond}
	for id, w := range want {
		if got := time.Duration(r.spans[id-1].Self); got != w {
			t.Errorf("span %d self = %v, want %v", id, got, w)
		}
	}
	tot := r.totals("w")
	if tot["step"].count != 2 || tot["step"].total != 150*time.Millisecond || tot["step"].own != 60*time.Millisecond {
		t.Errorf("step totals = %+v", tot["step"])
	}
	if r.spans[1].Workload != "w" {
		t.Errorf("child did not inherit its parent's workload: %+v", r.spans[1])
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("off", 0, "w")) // tracing off must be a no-op, not a crash
}

func TestResultRoundTripAndJudge(t *testing.T) {
	sum := func(vals ...float64) summary {
		q1, q3 := quartiles(vals)
		return summary{"ms", median(vals), q1, q3, vals}
	}
	rf := resultFile{
		Host: hostFacts{2, 2, "go1.24.0", "abc1234"}, Seed: 1, Seconds: 20, Runs: 3, EndToEnd: endToEnd,
		Workloads: map[string]workloadSet{wlTrainSingle: {
			Summary: map[string]summary{"op_ms_p50": sum(100, 101, 102)}, Attempted: 10,
			Notes: map[string]string{"param_hash": "ff"}, Ops: []string{"a", "b", "c"},
		}},
		Layers: map[string]value{"gemm.peak_gflops": {4.5, "GFLOP/s"}},
	}
	path := t.TempDir() + "/result.json"
	if err := writeJSON(path, rf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back resultFile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rf, back) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", rf, back)
	}

	lower := metricSpec{"op_ms_p50", "ms", "lower", 0.10}
	higher := metricSpec{"samples_per_s", "1/s", "higher", 0.10}
	for _, tc := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, sum(100, 101, 102), sum(104, 105, 106), verdictSame},
		{lower, sum(100, 101, 102), sum(114, 115, 116), verdictWorse},
		{lower, sum(100, 101, 102), sum(80, 81, 82), verdictSame}, // better is not worse
		{higher, sum(100, 101, 102), sum(80, 81, 82), verdictWorse},
		{lower, sum(100, 101, 102), sum(90, 115, 140), verdictUnresolved}, // spread wider than the bound
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a.Values, tc.b.Values, got, tc.want)
		}
	}
}

// TestSmoke runs all four workloads and the traced layer suite at toy sizes,
// and checks that each emits exactly the metrics spec.go promises, finite,
// with no failed operation, and that the seed decides the inputs.
func TestSmoke(t *testing.T) {
	p := params{sizes: smokeSizes, seed: 1, seconds: 0.2}
	hashes := map[string]string{}
	for _, w := range workloads {
		o, _, err := measure(w.Name, p, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, o.failed, o.attempted)
		}
		for _, m := range endToEnd {
			if v, ok := o.metrics[m.Name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive number", w.Name, m.Name, v, ok)
			}
		}
		hashes[w.Name] = o.notes["input_hash"]
	}

	o, rec, err := measure(wlTrainSingle, p, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Errorf("traced run: %d of %d operations failed", o.failed, o.attempted)
	}
	for _, m := range perLayer {
		if v, ok := o.metrics[m.Name]; !ok || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("per-layer metric %s = %v (present %v), want a finite number", m.Name, v, ok)
		}
	}
	if got := o.metrics["allreduce.wire_ratio_fp16"]; got != 0.5 {
		t.Errorf("fp16 wire ratio = %v, want exactly 0.5", got)
	}
	names := map[string]bool{}
	rec.finish()
	for _, s := range rec.spans {
		names[s.Name] = true
		if s.End < s.Start || s.Self < 0 {
			t.Fatalf("span %+v has a negative duration or self time", s)
		}
	}
	for _, want := range []string{"Session.Fit", "epoch", "step", "forward", "backward", "optim", "allreduce", "comm_wait", "eval", "tune.Run", "trial", "Segment"} {
		if !names[want] {
			t.Errorf("traced run recorded no %q span", want)
		}
	}

	p.seed = 2
	o2, err := runServe(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o2.notes["input_hash"] == hashes[wlServeMultiWindow] {
		t.Errorf("seeds 1 and 2 generated the same serve volumes (%s)", hashes[wlServeMultiWindow])
	}
	p.seed = 1
	o1, err := runServe(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1.notes["input_hash"] != hashes[wlServeMultiWindow] {
		t.Errorf("seed 1 generated different serve volumes twice: %s, %s", o1.notes["input_hash"], hashes[wlServeMultiWindow])
	}
}

// TestSpecMatchesBenchmarkJSON keeps /BENCHMARK.json and spec.go equal and
// inside the driver's naming rules.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ:\n%+v\n%+v", file.Workloads, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", file.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
}
