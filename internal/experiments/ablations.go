package experiments

import (
	"fmt"
	"strings"
)

// AllReduceAblation compares the campaign makespan of the data-parallel
// method under ring vs naive all-reduce across the GPU ladder (ablation:
// the all-reduce algorithm is a design choice worth quantifying).
type AllReduceAblation struct {
	GPUs         int
	RingSec      float64
	NaiveSec     float64
	NaivePenalty float64 // NaiveSec / RingSec
}

// RunAllReduceAblation computes both variants for every GPU count, using a
// fixed 90-epoch experiment and the paper's 32-trial search.
func RunAllReduceAblation(p Params, gpuCounts []int) []AllReduceAblation {
	out := make([]AllReduceAblation, 0, len(gpuCounts))
	for _, n := range gpuCounts {
		ring := 32 * 90 * p.EpochTimeDataParallel(n, true)
		naive := 32 * 90 * p.EpochTimeDataParallel(n, false)
		out = append(out, AllReduceAblation{
			GPUs:         n,
			RingSec:      ring,
			NaiveSec:     naive,
			NaivePenalty: naive / ring,
		})
	}
	return out
}

// FormatAllReduceAblation renders the ablation as a text table.
func FormatAllReduceAblation(rows []AllReduceAblation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %14s  %14s  %8s\n", "# GPUs", "ring", "naive", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %14s  %14s  %7.2fx\n",
			r.GPUs, FormatHMS(r.RingSec), FormatHMS(r.NaiveSec), r.NaivePenalty)
	}
	return b.String()
}
