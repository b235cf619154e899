// Command benchmark is the repository's yardstick: four seeded workloads
// measured from the outside, through the public functions of each layer.
//
// One run (what BENCHMARK.json's command invokes, through run.sh):
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// prints every metric by name with its unit and ends with one JSON line
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
// A set of runs, each in its own child process:
//
//	benchmark -out DIR [-seed N] [-seconds S] [-runs K] [-trace 1]
//
// writes DIR/result.json (and DIR/trace.jsonl with -trace 1), and
//
//	benchmark -compare A/result.json B/result.json
//
// judges B against A with the bounds of spec.go. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result line")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end (with -out alone: add one traced run)")
	out := flag.String("out", "", "directory for result.json / trace.jsonl; without -workload, run every workload there in child processes")
	runs := flag.Int("runs", 5, "with -out: untraced runs per workload")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments")
	smoke := flag.Bool("smoke", false, "toy sizes: checks the plumbing, measures nothing")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *smoke, *out)
	case *out != "":
		err = runSet(*out, *seed, *seconds, *runs, *trace == 1, *smoke)
	default:
		err = fmt.Errorf("need -workload, -out or -compare (see benchmark/README.md)")
	}
	if err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

// record is one run as result.json keeps it: the driver line plus the notes
// that explain it.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Result   runResult         `json:"result"`
	Notes    map[string]string `json:"notes"`
}

// measure runs one workload (untraced) or the whole layer suite (traced) in
// this process.
func measure(workload string, p params, traced bool, tmp string) (*outcome, *recorder, error) {
	if !traced {
		var o *outcome
		var err error
		switch workload {
		case wlTrainSingle:
			o, err = runTrainSingle(p, nil)
		case wlCampaignExperiment:
			o, err = runCampaign(p, core.StrategyExperiment)
		case wlCampaignData:
			o, err = runCampaign(p, core.StrategyData)
		case wlServeMultiWindow:
			o, err = runServe(p, nil)
		default:
			err = fmt.Errorf("unknown workload %q", workload)
		}
		if err != nil {
			return nil, nil, err
		}
		o.metrics["peak_rss_mb"], err = peakRSSMB()
		return o, nil, err
	}

	// Layers are shared by the workloads, so a traced run measures all of
	// them whichever workload it names: the standalone probes, then a short
	// traced window of each workload that has layers of its own.
	rec := newRecorder()
	total := newOutcome()
	short := p
	short.seconds = p.seconds / 5
	for _, stage := range []func() (*outcome, error){
		func() (*outcome, error) { return probeNet(p) },
		func() (*outcome, error) { return probeAllreduce(p) },
		func() (*outcome, error) { return probeStorage(p) },
		func() (*outcome, error) { return probeMirrored(p, rec) },
		func() (*outcome, error) { return probeDist(p, rec, tmp) },
		func() (*outcome, error) { return runTrainSingle(p, rec) },
		func() (*outcome, error) { return runCampaignTraced(p, rec) },
		func() (*outcome, error) { return runServe(short, rec) },
	} {
		// A stage lasts a few seconds; its times are calibrated as a whole
		// against the box's speed on either side of it (calib.go).
		meter := speedMeter{runs: p.calRuns}
		meter.start()
		o, err := stage()
		if err != nil {
			return nil, nil, err
		}
		f := meter.segment()
		for _, m := range perLayer {
			if _, ok := o.metrics[m.Name]; !ok {
				continue
			}
			switch m.Unit {
			case "ms":
				o.metrics[m.Name] *= f
			case "1/s", "GFLOP/s":
				o.metrics[m.Name] /= f
			}
		}
		total.merge(o)
	}
	return total, rec, nil
}

func runOne(workload string, seed int64, seconds float64, traced, smoke bool, outDir string) error {
	known := false
	for _, w := range workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	p := params{sizes: fullSizes, seed: seed, seconds: seconds}
	if smoke {
		p.sizes = smokeSizes
	} else if runtime.GOMAXPROCS(0) < 2 {
		// Replicas, trial slots, serve replicas and clients are all two
		// wide; on one core their wall-clock says nothing about scaling.
		return fmt.Errorf("GOMAXPROCS is %d: the benchmark's parallel degree is 2 and it refuses to time it on fewer cores", runtime.GOMAXPROCS(0))
	}
	tmp, err := os.MkdirTemp(scratchRoot(outDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	o, rec, err := measure(workload, p, traced, tmp)
	if err != nil {
		return err
	}
	spec := endToEnd
	if traced {
		spec = perLayer
	}
	res := runResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  seconds %g  traced %v  GOMAXPROCS %d\n", workload, seed, seconds, traced, runtime.GOMAXPROCS(0))
	for _, m := range spec {
		v, ok := o.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("  %-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	notes := make([]string, 0, len(o.notes))
	for k, v := range o.notes {
		notes = append(notes, k+"="+v)
	}
	sort.Strings(notes)
	fmt.Printf("  fail_share %d/%d  %s\n", o.failed, o.attempted, strings.Join(notes, "  "))

	if outDir != "" {
		rc := record{workload, seed, seconds, traced, res, o.notes}
		name := fmt.Sprintf("%s.%d.json", workload, os.Getpid())
		if traced {
			name = "traced.json"
			if err := rec.write(filepath.Join(outDir, "trace.jsonl")); err != nil {
				return err
			}
		}
		if err := writeJSON(filepath.Join(outDir, name), rc); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d verified operations failed", o.failed, o.attempted)
	}
	return nil
}

// scratchRoot is where a run may leave temporary files: the output
// directory when there is one, otherwise .bench_build under the working
// directory (the checkout), never the system temp directory.
func scratchRoot(outDir string) string {
	if outDir != "" {
		return outDir
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "."
	}
	return ".bench_build"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
