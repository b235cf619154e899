package tune

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Decision is a scheduler's verdict on a reporting trial.
type Decision int

// Scheduler decisions.
const (
	Continue Decision = iota
	StopTrial
)

// Scheduler decides, on every report, whether a trial keeps running. This is
// the extension point Ray.Tune calls a trial scheduler; FIFO reproduces the
// paper's behaviour, median-stopping and ASHA implement the "smarter
// tuning" extensions.
type Scheduler interface {
	Name() string
	OnReport(trial *Trial, rep Report, peers []*Trial) Decision
}

// StatefulScheduler is a Scheduler whose verdicts depend on accumulated
// observations. Campaign checkpointing persists the exported state next to
// the trial records, so a resumed campaign restores the scheduler directly
// instead of recomputing it by replaying every restored report.
type StatefulScheduler interface {
	Scheduler
	// ExportState serializes the scheduler's accumulated observations.
	ExportState() ([]byte, error)
	// ImportState replaces the scheduler's observations with a previously
	// exported state.
	ImportState(data []byte) error
}

// FIFO runs every trial to completion (Ray.Tune's default; the paper's
// benchmark behaviour).
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "fifo" }

// OnReport implements Scheduler.
func (FIFO) OnReport(*Trial, Report, []*Trial) Decision { return Continue }

// MedianStopping stops a trial whose best metric is worse than the median
// of its peers' bests, after a grace period.
type MedianStopping struct {
	Metric      string
	Mode        string // "max" or "min"
	GracePeriod int    // reports before the rule may fire
	MinPeers    int    // peers with data required before the rule may fire
}

// Name implements Scheduler.
func (m MedianStopping) Name() string { return "median-stopping" }

// OnReport implements Scheduler.
func (m MedianStopping) OnReport(trial *Trial, rep Report, peers []*Trial) Decision {
	if rep.Step < m.GracePeriod {
		return Continue
	}
	var peerBests []float64
	for _, p := range peers {
		if p == trial {
			continue
		}
		if v, ok := p.BestMetric(m.Metric, m.Mode); ok {
			peerBests = append(peerBests, v)
		}
	}
	if len(peerBests) < m.MinPeers {
		return Continue
	}
	sort.Float64s(peerBests)
	median := peerBests[len(peerBests)/2]
	mine, ok := trial.BestMetric(m.Metric, m.Mode)
	if !ok {
		return Continue
	}
	worse := mine < median
	if m.Mode == "min" {
		worse = mine > median
	}
	if worse {
		return StopTrial
	}
	return Continue
}

// ASHA is the asynchronous successive-halving scheduler: rungs sit at
// MinT·Reduction^k steps; at each rung a trial survives only if it ranks in
// the top 1/Reduction of the metric values recorded at that rung so far.
type ASHA struct {
	Metric    string
	Mode      string
	MinT      int // first rung
	Reduction int // η

	mu     sync.Mutex
	rungs  map[int][]float64        // rung step → recorded metric values
	judged map[int]map[int]Decision // trial ID → rung → verdict given there
}

// NewASHA returns an ASHA scheduler with the given first rung and reduction
// factor η (commonly 3 or 4).
func NewASHA(metric, mode string, minT, reduction int) *ASHA {
	if minT < 1 {
		minT = 1
	}
	if reduction < 2 {
		reduction = 2
	}
	return &ASHA{
		Metric:    metric,
		Mode:      mode,
		MinT:      minT,
		Reduction: reduction,
		rungs:     map[int][]float64{},
		judged:    map[int]map[int]Decision{},
	}
}

// Name implements Scheduler.
func (a *ASHA) Name() string { return "asha" }

// rungFor returns the highest rung boundary ≤ step, or 0 if below MinT.
func (a *ASHA) rungFor(step int) int {
	r := a.MinT
	best := 0
	for r <= step {
		best = r
		r *= a.Reduction
	}
	return best
}

// OnReport implements Scheduler.
func (a *ASHA) OnReport(trial *Trial, rep Report, peers []*Trial) Decision {
	v, ok := rep.Metrics[a.Metric]
	if !ok {
		return Continue
	}
	rung := a.rungFor(rep.Step)
	if rung == 0 {
		return Continue
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Each trial is recorded and judged at most once per rung (keyed by
	// trial ID, so a restored or re-run trial re-reporting the same rung
	// cannot double-count). A repeated report at a judged rung — a later
	// one inside the same band, or a re-run after a failure — gets the
	// verdict given the first time, so a trial stopped there stays stopped.
	if a.judged[trial.ID] == nil {
		a.judged[trial.ID] = map[int]Decision{}
	}
	if d, ok := a.judged[trial.ID][rung]; ok {
		return d
	}
	d := a.judge(rung, v)
	a.judged[trial.ID][rung] = d
	return d
}

// judge records v at rung and ranks it against the values recorded there.
func (a *ASHA) judge(rung int, v float64) Decision {
	vals := append(a.rungs[rung], v)
	a.rungs[rung] = vals
	if len(vals) < a.Reduction {
		return Continue // not enough evidence at this rung yet
	}
	sorted := append([]float64(nil), vals...)
	if a.Mode == "min" {
		sort.Float64s(sorted)
	} else {
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	}
	cut := sorted[(len(sorted)-1)/a.Reduction]
	survives := v >= cut
	if a.Mode == "min" {
		survives = v <= cut
	}
	if survives {
		return Continue
	}
	return StopTrial
}

// ashaState is the JSON shape of ASHA's accumulated observations: the rung
// populations (metric values in arrival order — order is irrelevant to the
// quantile cut but kept stable for reproducible files) and, per trial, the
// verdict given at each rung it was judged at (0 Continue, 1 StopTrial).
type ashaState struct {
	Rungs    map[int][]float64        `json:"rungs"`
	Verdicts map[int]map[int]Decision `json:"verdicts"`
}

// ExportState implements StatefulScheduler.
func (a *ASHA) ExportState() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Marshal(ashaState{Rungs: a.rungs, Verdicts: a.judged})
}

// ImportState implements StatefulScheduler. A state without verdicts (one
// that only listed the judged rungs) is rejected: it cannot answer a
// repeated report, so the runner replays the restored trials instead.
func (a *ASHA) ImportState(data []byte) error {
	var st ashaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("tune: asha state: %w", err)
	}
	if st.Verdicts == nil {
		return fmt.Errorf("tune: asha state has no verdicts")
	}
	if st.Rungs == nil {
		st.Rungs = map[int][]float64{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rungs, a.judged = st.Rungs, st.Verdicts
	return nil
}
