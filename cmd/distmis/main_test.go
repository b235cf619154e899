package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this test binary as the distmis command:
// with DISTMIS_RUN_MAIN set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DISTMIS_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDistmis runs the command with args and returns its standard output.
func runDistmis(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DISTMIS_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("distmis %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestTrialsFlagCapsTheSearch: -trials N announces N experiments and lists
// exactly N trials, under both strategies.
func TestTrialsFlagCapsTheSearch(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		trials   int
	}{{"experiment", 2}, {"data", 3}} {
		n := strconv.Itoa(tc.trials)
		out := runDistmis(t, "-strategy", tc.strategy, "-gpus", "2", "-trials", n,
			"-epochs", "1", "-cases", "8", "-dim", "8", "-seed", "3")
		if !strings.Contains(out, " experiments="+n+" ") {
			t.Fatalf("-strategy %s -trials %d announced another count:\n%s", tc.strategy, tc.trials, out)
		}
		// The trial table runs from its header to the next blank line.
		_, table, _ := strings.Cut(out, "\nlr ")
		table, _, _ = strings.Cut(table, "\n\n")
		if rows := strings.Count(table, "\n"); rows != tc.trials {
			t.Fatalf("-strategy %s -trials %d listed %d trials:\n%s", tc.strategy, tc.trials, rows, out)
		}
	}
}
