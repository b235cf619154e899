package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created; Parent is 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // filled by finish
}

// recorder keeps spans in memory and writes them when the run ends, so
// recording costs an append under a mutex and no I/O. A nil *recorder is
// "tracing off": begin/end/add are no-ops, which is how untraced runs share
// the workload code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[i].ID == i+1
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (0 = root, taking workload as its
// workload; children inherit their parent's) and returns its id.
func (r *recorder) begin(name string, parent int, workload string) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, workload, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span with known bounds — phase children are stitched in this
// way from the durations a strategy's phase observer reports. A zero end
// leaves the span open for end.
func (r *recorder) add(name string, parent int, workload string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Workload: workload, Start: start.Sub(r.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch).Nanoseconds()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent > 0 {
		s.Workload = r.spans[parent-1].Workload
	}
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover (overlapping children — concurrent
// trials, an all-reduce overlapped with backward — are counted once).
// totals and write call it, so self times are current whenever they are read.
func (r *recorder) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]int{}
	for i, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := r.spans[k].Start, r.spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// spanTotals sums duration and self time of one workload's spans by name.
type spanTotals struct {
	count      int
	total, own time.Duration
}

func (r *recorder) totals(workload string) map[string]spanTotals {
	r.finish()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]spanTotals{}
	for _, s := range r.spans {
		if s.Workload != workload {
			continue
		}
		t := out[s.Name]
		t.count++
		t.total += time.Duration(s.End - s.Start)
		t.own += time.Duration(s.Self)
		out[s.Name] = t
	}
	return out
}

// write emits one JSON object per span, in creation order.
func (r *recorder) write(path string) error {
	r.finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
