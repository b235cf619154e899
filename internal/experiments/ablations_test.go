package experiments

import (
	"strings"
	"testing"
)

func TestAllReduceAblation(t *testing.T) {
	cfg, err := PaperCampaign()
	if err != nil {
		t.Fatal(err)
	}
	rows := RunAllReduceAblation(cfg.Params, PaperGPUCounts)
	if len(rows) != len(PaperGPUCounts) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.GPUs == 1 {
			// No all-reduce on one GPU: variants must tie.
			if r.NaivePenalty != 1 {
				t.Fatalf("1-GPU penalty %v", r.NaivePenalty)
			}
			continue
		}
		if r.NaiveSec < r.RingSec {
			t.Fatalf("n=%d: naive %v beat ring %v", r.GPUs, r.NaiveSec, r.RingSec)
		}
	}
	// The penalty must grow once the ring spans nodes (bigger messages on
	// the slow hop hurt naive far more).
	var p8, p32 float64
	for _, r := range rows {
		if r.GPUs == 8 {
			p8 = r.NaivePenalty
		}
		if r.GPUs == 32 {
			p32 = r.NaivePenalty
		}
	}
	if p32 <= p8 {
		t.Fatalf("penalty should grow with scale: %v at 8 vs %v at 32", p8, p32)
	}
	out := FormatAllReduceAblation(rows)
	if !strings.Contains(out, "penalty") || len(strings.Split(strings.TrimSpace(out), "\n")) != len(rows)+1 {
		t.Fatalf("rendering:\n%s", out)
	}
}
