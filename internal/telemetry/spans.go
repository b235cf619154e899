package telemetry

import (
	"sync"
	"time"
)

// SpanGroup aggregates named spans into per-stage totals and counts, the
// timing primitive behind per-stage bottleneck reports (the paper's
// input-pipeline profiling). It is safe for concurrent use; the clock is injectable for deterministic
// tests, and an attached Tracer receives every ended span as a trace
// record.
type SpanGroup struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	counts map[string]int
	clock  func() time.Time
	tracer *Tracer
}

// NewSpanGroup returns an empty span group using the wall clock.
func NewSpanGroup() *SpanGroup {
	return NewSpanGroupWithClock(time.Now)
}

// NewSpanGroupWithClock returns a span group reading time from clock — for
// tests that need deterministic durations.
func NewSpanGroupWithClock(clock func() time.Time) *SpanGroup {
	return &SpanGroup{
		totals: map[string]time.Duration{},
		counts: map[string]int{},
		clock:  clock,
	}
}

// SetTracer attaches (or with nil detaches) a tracer; every subsequently
// ended span is also emitted as a KindSpan trace record.
func (g *SpanGroup) SetTracer(t *Tracer) {
	g.mu.Lock()
	g.tracer = t
	g.mu.Unlock()
}

// Span starts timing stage and returns the function that ends it:
//
//	defer g.Span("forward")()
func (g *SpanGroup) Span(stage string) func() {
	t0 := g.clock()
	return func() {
		g.Add(stage, g.clock().Sub(t0))
	}
}

// Add records one completed span of the given duration against stage.
func (g *SpanGroup) Add(stage string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	g.mu.Lock()
	g.totals[stage] += d
	g.counts[stage]++
	tr := g.tracer
	g.mu.Unlock()
	tr.Emit(Record{Kind: KindSpan, Name: stage, Dur: d.Nanoseconds()})
}

// Total returns the accumulated duration for stage.
func (g *SpanGroup) Total(stage string) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.totals[stage]
}

// Count returns how many spans were recorded for stage.
func (g *SpanGroup) Count(stage string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counts[stage]
}

// SpanStat is the aggregate for one stage. Fraction is the stage's share
// of the group's total time.
type SpanStat struct {
	Stage    string
	Total    time.Duration
	Count    int
	Mean     time.Duration
	Fraction float64
}

// Stats returns per-stage aggregates sorted by total descending, ties
// broken by stage name — a stable order for reports and assertions.
func (g *SpanGroup) Stats() []SpanStat {
	g.mu.Lock()
	var grand time.Duration
	for _, d := range g.totals {
		grand += d
	}
	out := make([]SpanStat, 0, len(g.totals))
	for stage, total := range g.totals {
		s := SpanStat{Stage: stage, Total: total, Count: g.counts[stage]}
		if s.Count > 0 {
			s.Mean = total / time.Duration(s.Count)
		}
		if grand > 0 {
			s.Fraction = float64(total) / float64(grand)
		}
		out = append(out, s)
	}
	g.mu.Unlock()
	sortSpanStats(out)
	return out
}

func sortSpanStats(out []SpanStat) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && spanStatLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func spanStatLess(a, b SpanStat) bool {
	if a.Total != b.Total {
		return a.Total > b.Total
	}
	return a.Stage < b.Stage
}

// Reset clears all accumulated stages.
func (g *SpanGroup) Reset() {
	g.mu.Lock()
	g.totals = map[string]time.Duration{}
	g.counts = map[string]int{}
	g.mu.Unlock()
}
