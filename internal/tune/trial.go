package tune

import (
	"fmt"
	"sort"
	"sync"
)

// Status is a trial lifecycle state.
type Status int

// Trial lifecycle states, mirroring Ray.Tune's.
const (
	Pending Status = iota
	Running
	Terminated // finished normally
	Stopped    // stopped early by a scheduler
	Errored
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Terminated:
		return "TERMINATED"
	case Stopped:
		return "STOPPED"
	case Errored:
		return "ERRORED"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Report is one metrics callback from a running trial, the paper's
// "reporting callback function... to provide Ray with the finalization
// results".
type Report struct {
	Step    int // training iteration (epoch) of the report
	Metrics map[string]float64
}

// Trial is one experiment of the search.
type Trial struct {
	ID     int
	Config Config

	mu      sync.Mutex
	status  Status
	gpus    []int
	reports []Report
	err     error
}

// NewTrial creates a pending trial.
func NewTrial(id int, cfg Config) *Trial {
	return &Trial{ID: id, Config: cfg, status: Pending}
}

// Status returns the current lifecycle state.
func (t *Trial) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// GPUs returns the GPUs the trial holds (or held), nil if never placed.
func (t *Trial) GPUs() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int(nil), t.gpus...)
}

// Err returns the trial's failure, if any.
func (t *Trial) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Reports returns a copy of the reports received so far.
func (t *Trial) Reports() []Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Report, len(t.reports))
	copy(out, t.reports)
	return out
}

// BestMetric returns the best value of a metric under the given mode
// ("max" or "min").
func (t *Trial) BestMetric(name, mode string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	found := false
	var best float64
	for _, r := range t.reports {
		v, ok := r.Metrics[name]
		if !ok {
			continue
		}
		if !found || (mode == "min" && v < best) || (mode != "min" && v > best) {
			best = v
			found = true
		}
	}
	return best, found
}

func (t *Trial) setStatus(s Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status = s
}

func (t *Trial) setGPUs(gpus []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gpus = gpus
}

func (t *Trial) setErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.err = err
	t.status = Errored
}

// restore re-establishes a terminal state recorded by a previous campaign
// run (status and full report history) without executing the trainable.
func (t *Trial) restore(s Status, reports []Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status = s
	t.reports = append(t.reports[:0], reports...)
}

func (t *Trial) addReport(r Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reports = append(t.reports, r)
}

// Analysis summarizes a finished run.
type Analysis struct {
	Trials []*Trial
	Metric string
	Mode   string
}

// Best returns the trial with the best reported metric (each trial scored by
// its best report), or nil when no trial reported it.
func (a *Analysis) Best() *Trial {
	var best *Trial
	var bestV float64
	for _, t := range a.Trials {
		v, ok := t.BestMetric(a.Metric, a.Mode)
		if !ok {
			continue
		}
		if best == nil || (a.Mode == "min" && v < bestV) || (a.Mode != "min" && v > bestV) {
			best, bestV = t, v
		}
	}
	return best
}

// Ranked returns the trials ordered best-first by their best metric; trials
// without the metric sort last.
func (a *Analysis) Ranked() []*Trial {
	out := append([]*Trial(nil), a.Trials...)
	sort.SliceStable(out, func(i, j int) bool {
		vi, oki := out[i].BestMetric(a.Metric, a.Mode)
		vj, okj := out[j].BestMetric(a.Metric, a.Mode)
		if oki != okj {
			return oki
		}
		if !oki {
			return false
		}
		if a.Mode == "min" {
			return vi < vj
		}
		return vi > vj
	})
	return out
}

// StatusCounts tallies trials per lifecycle state.
func (a *Analysis) StatusCounts() map[Status]int {
	out := map[Status]int{}
	for _, t := range a.Trials {
		out[t.Status()]++
	}
	return out
}
