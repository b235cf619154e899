package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/tune"
)

// TestGoldenRunBitIdentical pins the exact per-trial validation Dice of Run
// under both distribution strategies for fixed seeds, captured from the
// pre-train.Session implementation. A trial's Dice is its best epoch's; the
// two gemm/data lr=0.05 entries moved when data-parallel trials stopped
// reporting their last epoch's instead (the training bits are unchanged).
// Trials are keyed by their rendered config (deterministic), so the
// concurrent experiment-parallel schedule cannot permute the comparison.
func TestGoldenRunBitIdentical(t *testing.T) {
	want := map[string]map[string]uint64{
		"gemm/data": {
			"augment=flip;loss=dice;lr=0.01;optimizer=sgd;": 0x3faab68a0473c1ab,
			"augment=flip;loss=dice;lr=0.05;optimizer=sgd;": 0x3fadae6076b981db,
			"augment=none;loss=dice;lr=0.01;optimizer=sgd;": 0x3faab68a0473c1ab,
			"augment=none;loss=dice;lr=0.05;optimizer=sgd;": 0x3facd85689039b0b,
		},
		"gemm/experiment": {
			"augment=flip;loss=dice;lr=0.01;optimizer=sgd;": 0x3faab68a0473c1ab,
			"augment=flip;loss=dice;lr=0.05;optimizer=sgd;": 0x3fb024e6a171024e,
			"augment=none;loss=dice;lr=0.01;optimizer=sgd;": 0x3faa7b9611a7b961,
			"augment=none;loss=dice;lr=0.05;optimizer=sgd;": 0x3fabed61bed61bed,
		},
	}

	print := os.Getenv("REPRO_GOLDEN_PRINT") != ""
	for _, strategy := range []Strategy{StrategyData, StrategyExperiment} {
		key := fmt.Sprintf("gemm/%s", strategy)
		t.Run(key, func(t *testing.T) {
			opts := smallOptions(strategy, 2)
			opts.Epochs = 2
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]uint64{}
			for _, tr := range res.Trials {
				if tr.Err != nil {
					t.Fatalf("trial %v errored: %v", tr.Config, tr.Err)
				}
				got[renderConfig(tr.Config)] = math.Float64bits(tr.Dice)
			}
			if print {
				fmt.Printf("GOLDEN %q: {\n", key)
				for _, tr := range res.Trials {
					fmt.Printf("\t%q: %#x,\n", renderConfig(tr.Config), math.Float64bits(tr.Dice))
				}
				fmt.Printf("},\n")
				return
			}
			w := want[key]
			if len(got) != len(w) {
				t.Fatalf("trial count %d, want %d", len(got), len(w))
			}
			for cfg, bits := range w {
				if got[cfg] != bits {
					t.Errorf("trial %s: dice bits %#x, want %#x", cfg, got[cfg], bits)
				}
			}
		})
	}
}

// renderConfig mirrors tune's deterministic config rendering for keying.
func renderConfig(c tune.Config) string {
	cfgs := []tune.Config{c}
	tune.SortConfigs(cfgs) // no-op for one config; keeps the tune dependency honest
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sortStrings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v;", k, c[k])
	}
	return s
}

func sortStrings(s []string) {
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
}
