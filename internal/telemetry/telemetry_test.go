package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create: same handle back.
	if r.Counter("events_total", "events") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Inc()
	g.Add(-0.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestVecUnregisteredValuePanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "", "op", "read", "write")
	v.With("read").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("With on unregistered label value should panic")
		}
	}()
	v.With("delete")
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 5556 {
		t.Fatalf("sum = %g, want 5556", s.Sum)
	}
	if s.Max != 5000 {
		t.Fatalf("max = %g, want 5000", s.Max)
	}
	wantCounts := []uint64{2, 1, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	// p50: target = 2, cum after bucket0 = 2 (not > 2), bucket1 → bound 100.
	if q := s.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %g, want 100", q)
	}
	// p99: target = 4, lands in +Inf bucket → Max.
	if q := s.Quantile(0.99); q != 5000 {
		t.Fatalf("p99 = %g, want 5000", q)
	}
	// q=1 → Max.
	if q := s.Quantile(1); q != 5000 {
		t.Fatalf("p100 = %g, want 5000", q)
	}
	if m := s.Mean(); m != 5556.0/5 {
		t.Fatalf("mean = %g", m)
	}
}

func TestObserveDurationNanosecondDomain(t *testing.T) {
	h := NewHistogram(DurationBounds([]time.Duration{time.Microsecond, time.Millisecond}))
	h.ObserveDuration(1234 * time.Nanosecond)
	h.ObserveDuration(-5 * time.Second) // clamped to 0
	s := h.Snapshot()
	if s.Sum != 1234 {
		t.Fatalf("sum = %g, want exactly 1234 (ns domain must not round)", s.Sum)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
}

func TestGeometricDurationBoundsShape(t *testing.T) {
	b := GeometricDurationBounds(time.Microsecond, 100*time.Second, 80)
	if len(b) != 80 {
		t.Fatalf("len = %d, want 80", len(b))
	}
	if b[0] != float64(time.Microsecond) {
		t.Fatalf("b[0] = %g, want 1000", b[0])
	}
	// Last bound lands on 100s up to float accumulation in the ratio walk.
	if got := b[79]; math.Abs(got-100e9) > 1e6 {
		t.Fatalf("b[79] = %g, want ≈ 100e9", got)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
}

// TestPrometheusGolden pins the exact exposition bytes: deterministic
// family, child and bucket ordering, escaping, histogram suffixes.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", `help with "quotes" and \slash`).Add(7)
	r.GaugeVec("a_depth", "per-queue depth", "queue", "ingest", "batch").With("ingest").Set(2.5)
	h := r.HistogramVec("c_latency_ns", "latency", []float64{1000, 2000}, "stage", "total")
	h.With("total").Observe(1500)
	h.With("total").Observe(500)
	r.CounterFunc("d_sampled_total", "sampled", func() uint64 { return 42 })

	var sb strings.Builder
	if err := WriteText(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_depth per-queue depth
# TYPE a_depth gauge
a_depth{queue="batch"} 0
a_depth{queue="ingest"} 2.5
# HELP b_total help with "quotes" and \\slash
# TYPE b_total counter
b_total 7
# HELP c_latency_ns latency
# TYPE c_latency_ns histogram
c_latency_ns_bucket{stage="total",le="1000"} 1
c_latency_ns_bucket{stage="total",le="2000"} 2
c_latency_ns_bucket{stage="total",le="+Inf"} 2
c_latency_ns_sum{stage="total"} 2000
c_latency_ns_count{stage="total"} 2
# HELP d_sampled_total sampled
# TYPE d_sampled_total counter
d_sampled_total 42
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Same registry, second render: byte-identical (ordering is stable).
	var sb2 strings.Builder
	WriteText(&sb2, r)
	if sb.String() != sb2.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

// TestConcurrentHammer drives Inc/Add/Observe from four goroutines
// while a reader scrapes — run under -race this is the registry's
// correctness test, and the totals check catches lost updates.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("lat_ns", "", []float64{10, 100, 1000, 10000})
	v := r.CounterVec("ops_total", "", "op", "get", "put")

	const n = 50_000
	done := make(chan struct{})
	go func() { // concurrent scraper
		defer close(done)
		for i := 0; i < 200; i++ {
			var sb strings.Builder
			WriteText(&sb, r)
			s := h.Snapshot()
			var cum uint64
			for _, b := range s.Counts {
				cum += b
			}
			if cum < s.Count {
				t.Errorf("bucket total %d < count %d (count must be read first)", cum, s.Count)
				return
			}
		}
	}()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += writers {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20000))
				if i%2 == 0 {
					v.With("get").Inc()
				} else {
					v.With("put").Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	if c.Value() != n {
		t.Fatalf("counter = %d, want %d", c.Value(), n)
	}
	if g.Value() != n {
		t.Fatalf("gauge = %g, want %d (CAS add lost updates)", g.Value(), n)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("histogram count = %d, want %d", s.Count, n)
	}
	if got := v.With("get").Value() + v.With("put").Value(); got != n {
		t.Fatalf("vec total = %d, want %d", got, n)
	}
}

// blockingWriter stalls until released — simulating a wedged disk so the
// tracer's never-block guarantee is observable.
type blockingWriter struct {
	release chan struct{}
	wrote   chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	<-w.release
	return len(p), nil
}

func TestTracerNeverBlocksAndCountsDrops(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{}), wrote: make(chan struct{}, 1)}
	tr := NewTracer(bw, TracerOptions{Buffer: 4})

	// Overfill: the writer goroutine consumes at most a few records before
	// wedging on Write; everything past buffer+in-flight must drop, and
	// every Emit must return promptly.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			tr.Event("tick")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stalled writer")
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops with a stalled writer and a 4-record buffer")
	}
	close(bw.release)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped()+tr.Written() < 100 {
		t.Fatalf("dropped %d + written %d < 100 emitted", tr.Dropped(), tr.Written())
	}
}

func TestTracerJSONLStream(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, TracerOptions{})
	tr.Event("gen_start", "gen", "1", "width", "3")
	end := tr.Span("reform")
	end("gen", "2")
	tr.StepRecord("step", 7, 1, 42*time.Millisecond, "loss", "0.5")
	var nilTr *Tracer
	nilTr.Event("ignored") // nil-safe
	nilTr.Span("ignored")()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), sb.String())
	}
	var recs []Record
	for _, ln := range lines {
		var r Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Kind != KindEvent || recs[0].Name != "gen_start" || recs[0].Attrs["width"] != "3" {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Kind != KindSpan || recs[1].Name != "reform" || recs[1].Dur < 0 || recs[1].Attrs["gen"] != "2" {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Kind != KindStep || recs[2].Step != 7 || recs[2].Epoch != 1 || recs[2].Dur != int64(42*time.Millisecond) {
		t.Fatalf("record 2 = %+v", recs[2])
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TS < recs[i-1].TS {
			t.Fatalf("timestamps not monotone: %d after %d", recs[i].TS, recs[i-1].TS)
		}
	}
}

func TestSpanGroupStats(t *testing.T) {
	now := time.Unix(0, 0)
	g := NewSpanGroupWithClock(func() time.Time { return now })
	end := g.Span("forward")
	now = now.Add(30 * time.Millisecond)
	end()
	g.Add("backward", 60*time.Millisecond)
	g.Add("backward", 60*time.Millisecond)
	g.Add("optim", 10*time.Millisecond)

	if g.Total("backward") != 120*time.Millisecond || g.Count("backward") != 2 {
		t.Fatalf("backward total=%v count=%d", g.Total("backward"), g.Count("backward"))
	}
	st := g.Stats()
	if len(st) != 3 || st[0].Stage != "backward" || st[1].Stage != "forward" || st[2].Stage != "optim" {
		t.Fatalf("stats order = %+v", st)
	}
	if st[0].Mean != 60*time.Millisecond {
		t.Fatalf("backward mean = %v", st[0].Mean)
	}
	if got := st[0].Fraction; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("backward fraction = %g, want 0.75", got)
	}
	g.Reset()
	if len(g.Stats()) != 0 {
		t.Fatal("Reset left stages behind")
	}
}

// TestSpanGroupConcurrentAndTieOrder: an empty group reports nothing,
// concurrent Adds lose no span, and stages with equal totals sort by name.
func TestSpanGroupConcurrentAndTieOrder(t *testing.T) {
	g := NewSpanGroup()
	if len(g.Stats()) != 0 {
		t.Fatal("empty group must report no stages")
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add("b", time.Millisecond)
				g.Add("a", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if g.Count("a") != 1600 || g.Total("b") != 1600*time.Millisecond {
		t.Fatalf("a count %d, b total %v, want 1600 and 1.6s", g.Count("a"), g.Total("b"))
	}
	if st := g.Stats(); st[0].Stage != "a" || st[1].Stage != "b" {
		t.Fatalf("tied stages in order %s, %s; want a, b", st[0].Stage, st[1].Stage)
	}
}

func TestSpanGroupEmitsToTracer(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, TracerOptions{})
	g := NewSpanGroup()
	g.SetTracer(tr)
	g.Add("eval", 5*time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := json.Unmarshal([]byte(strings.TrimSpace(sb.String())), &r); err != nil {
		t.Fatalf("bad span record: %v", err)
	}
	if r.Kind != KindSpan || r.Name != "eval" || r.Dur != int64(5*time.Millisecond) {
		t.Fatalf("span record = %+v", r)
	}
}
