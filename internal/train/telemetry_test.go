package train

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryCallback runs a real two-epoch session through the
// telemetry callback and checks the metric counters, the per-phase
// attribution from the PhaseReporter strategy, and the trace stream's
// event sequence.
func TestTelemetryCallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sb strings.Builder
	tr := telemetry.NewTracer(&sb, telemetry.TracerOptions{})
	tel := NewTelemetry(reg, tr)

	strat := singleStrategy(t, "adam", 2)
	sess, err := NewSession(Config{
		Strategy:    strat,
		Epochs:      2,
		GlobalBatch: 2,
		Seed:        1,
		Callbacks:   []Callback{tel},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := samples(t, 4)
	if _, err := sess.Fit(data, data[:1]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("train_steps_total", "").Value(); got != 4 {
		t.Errorf("steps counter = %d, want 4 (2 epochs x 2 steps)", got)
	}
	if got := reg.Counter("train_epochs_total", "").Value(); got != 2 {
		t.Errorf("epochs counter = %d, want 2", got)
	}
	vec := reg.HistogramVec("train_phase_ns", "", nil, "phase", phaseNames...)
	for _, phase := range []string{"shuffle", "step", "eval", "forward", "backward", "optim"} {
		want := uint64(4) // per step
		if phase == "shuffle" || phase == "eval" {
			want = 2 // per epoch
		}
		if got := vec.With(phase).Snapshot().Count; got != want {
			t.Errorf("phase %q count = %d, want %d", phase, got, want)
		}
	}

	// Trace stream: train_begin, then per-epoch shuffle span + step records
	// + eval span + epoch_end, then train_end.
	var kinds []string
	var names []string
	for _, ln := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var r telemetry.Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", ln, err)
		}
		kinds = append(kinds, string(r.Kind))
		names = append(names, r.Name)
	}
	joined := strings.Join(names, " ")
	wantSeq := "train_begin shuffle step step eval epoch_end shuffle step step eval epoch_end train_end"
	if joined != wantSeq {
		t.Errorf("trace sequence =\n  %s\nwant\n  %s", joined, wantSeq)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d trace records with an unstalled writer", tr.Dropped())
	}
}
