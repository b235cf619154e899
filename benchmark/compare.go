package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts says where a result came from.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// summary is one metric of one workload over a set's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadSet is one workload's part of a result file.
type workloadSet struct {
	Summary   map[string]summary `json:"summary"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     map[string]string  `json:"notes"` // of the last run; hashes are equal across runs of one seed
	Ops       []string           `json:"ops"`   // sample counts, one per run
}

// resultFile is result.json.
type resultFile struct {
	Host      hostFacts              `json:"host"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs"`
	EndToEnd  []metricSpec           `json:"end_to_end"`
	Workloads map[string]workloadSet `json:"workloads"`
	Layers    map[string]value       `json:"layers,omitempty"` // from the traced run
}

// runSet runs every workload `runs` times, each run in a child process of
// its own (so peak RSS and pool state belong to one run), optionally adds a
// traced run, prints the medians and writes dir/result.json.
func runSet(dir string, seed int64, seconds float64, runs int, traced, smoke bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, trace int) (*record, error) {
		tmp, err := os.MkdirTemp(dir, "child-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-out", tmp}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		files, err := filepath.Glob(filepath.Join(tmp, "*.json"))
		if err != nil || len(files) != 1 {
			return nil, fmt.Errorf("%s: child left %d records (%v)", workload, len(files), err)
		}
		if trace == 1 {
			if err := os.Rename(filepath.Join(tmp, "trace.jsonl"), filepath.Join(dir, "trace.jsonl")); err != nil {
				return nil, err
			}
		}
		var rc record
		b, err := os.ReadFile(files[0])
		if err != nil {
			return nil, err
		}
		return &rc, json.Unmarshal(b, &rc)
	}

	rf := resultFile{
		Host: hostFacts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit()},
		Seed: seed, Seconds: seconds, Runs: runs, EndToEnd: endToEnd, Workloads: map[string]workloadSet{},
	}
	failed := 0
	for _, w := range workloads {
		ws := workloadSet{Summary: map[string]summary{}}
		vals := map[string][]float64{}
		for i := 0; i < runs; i++ {
			rc, err := child(w.Name, 0)
			if err != nil {
				return err
			}
			for name, v := range rc.Result.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
			ws.Attempted += rc.Result.Attempted
			ws.Failed += rc.Result.Failed
			ws.Ops = append(ws.Ops, rc.Notes["ops"])
			ws.Notes = rc.Notes
		}
		fmt.Printf("%s  (%d runs, fail_share %d/%d, input %s; last run: %s)\n",
			w.Name, runs, ws.Failed, ws.Attempted, ws.Notes["input_hash"], ws.Notes["ops"])
		for _, m := range endToEnd {
			q1, q3 := quartiles(vals[m.Name])
			s := summary{m.Unit, median(vals[m.Name]), q1, q3, vals[m.Name]}
			ws.Summary[m.Name] = s
			fmt.Printf("  %-16s %12.5g %-4s  [%.5g, %.5g]  n=%d\n", m.Name, s.Median, m.Unit, q1, q3, len(s.Values))
		}
		failed += ws.Failed
		rf.Workloads[w.Name] = ws
	}
	if traced {
		rc, err := child(wlTrainSingle, 1)
		if err != nil {
			return err
		}
		rf.Layers = rc.Result.Metrics
		failed += rc.Result.Failed
		fmt.Println("layers (traced run)")
		for _, m := range perLayer {
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, rf.Layers[m.Name].Value, m.Unit)
		}
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rf); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d verified operations failed", failed)
	}
	return nil
}

// commit is the checkout's HEAD, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Verdicts of one workload × metric comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b with baseline a for one metric: worse when b's
// median is worse than a's by more than the bound, unresolved when either
// side's own quartile spread is wider than the bound (the runs cannot tell),
// otherwise same. delta is the signed worsening as a share of a's median.
func judge(m metricSpec, a, b summary) (delta float64, verdict string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	delta = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		delta = -delta
	}
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Median }
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return delta, verdictUnresolved
	case delta > m.Bound:
		return delta, verdictWorse
	}
	return delta, verdictSame
}

// compareFiles prints, per workload × end-to-end metric, both medians and
// quartiles, the delta, the bound and the verdict, and fails on any "worse",
// on failed operations in the candidate, or — when both files are runs of
// one commit and seed — on differing parameter hashes.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result.json paths, got %d", len(paths))
	}
	var rfs [2]resultFile
	for i, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rfs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := rfs[0], rfs[1]
	fmt.Printf("A %s  commit %s seed %d, %d runs of %gs\nB %s  commit %s seed %d, %d runs of %gs\n",
		paths[0], a.Host.Commit, a.Seed, a.Runs, a.Seconds, paths[1], b.Host.Commit, b.Seed, b.Runs, b.Seconds)
	sameRun := a.Host.Commit == b.Host.Commit && a.Host.Commit != "unknown" && a.Seed == b.Seed
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		fmt.Printf("%s  fail_share A %d/%d B %d/%d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wb.Failed > wa.Failed {
			worse++
		}
		for _, m := range b.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			delta, verdict := judge(m, sa, sb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Printf("  %-14s A %10.5g [%.5g, %.5g]  B %10.5g [%.5g, %.5g] %-4s  delta %+6.1f%%  bound %4.0f%%  %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.Unit, 100*delta, 100*m.Bound, verdict)
		}
		for _, key := range []string{"input_hash", "param_hash", "val_dice"} {
			va, vb := wa.Notes[key], wb.Notes[key]
			if va == "" && vb == "" {
				continue
			}
			mark := ""
			if va != vb && sameRun {
				mark = "  MISMATCH on one commit and seed"
				worse++
			}
			fmt.Printf("  %-14s A %s  B %s%s\n", key, va, vb, mark)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons are worse", worse)
	}
	return nil
}
