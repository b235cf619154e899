// Command benchtable regenerates the paper's evaluation artifacts from the
// cluster simulation: Table I (-table1), Figure 4a (-fig4a) and Figure 4b
// (-fig4b). With no selection flags it prints all three. Kernel and layer
// timings live in the repository benchmark (bash benchmark/run.sh --trace 1).
//
// Usage:
//
//	benchtable [-table1] [-fig4a] [-fig4b] [-trials N] [-reps N] [-seed N]
//
// Measured multi-process step times are not simulated here: run
// distmis -mode coordinator -codec C, or the benchmark's dist.* probes.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtable: ")

	table1 := flag.Bool("table1", false, "print Table I (elapsed time and speed-up per GPU count)")
	fig4a := flag.Bool("fig4a", false, "print Figure 4a series (elapsed time with min/max whiskers)")
	fig4b := flag.Bool("fig4b", false, "print Figure 4b series (speed-up)")
	ablation := flag.Bool("ablation", false, "print the ring-vs-naive all-reduce ablation table")
	trials := flag.Int("trials", 0, "override the number of experiments in the search (default: paper's 32)")
	reps := flag.Int("reps", 0, "override the repetition count (default: paper's 3)")
	seed := flag.Int64("seed", 0, "override the simulation seed")
	tracePath := flag.String("trace", "", "write JSONL trace events for the run to FILE")
	metricsAddr := flag.String("metrics-addr", "", "debug listener address exposing /metrics and /debug/pprof/ (\"\" = off)")
	flag.Parse()

	if *metricsAddr != "" {
		bound, err := telemetry.ServeDebug(*metricsAddr, telemetry.Default())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug listener on http://%s/metrics", bound)
	}
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		t, err := telemetry.NewTracerFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tracer = t
		defer tracer.Close()
	}

	cfg, err := experiments.PaperCampaign()
	if err != nil {
		log.Fatal(err)
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	endCampaign := tracer.Span("table1_campaign")
	rows, err := experiments.RunTable1(cfg)
	if err != nil {
		log.Fatal(err)
	}
	endCampaign("trials", fmt.Sprint(cfg.Trials), "reps", fmt.Sprint(cfg.Reps))

	all := !*table1 && !*fig4a && !*fig4b && !*ablation
	if *table1 || all {
		fmt.Println("TABLE I: results on data parallelism method and experiment parallelism method")
		fmt.Printf("(%d experiments, %d repetitions averaged, simulated MareNostrum-CTE)\n\n", cfg.Trials, cfg.Reps)
		fmt.Println(experiments.FormatTable1(rows))
	}
	if *fig4a || all {
		fmt.Println("FIGURE 4a: average elapsed time per number of GPUs, with max and min")
		data, exp := experiments.Fig4a(rows)
		fmt.Print(experiments.FormatSeries(data, "seconds"))
		fmt.Print(experiments.FormatSeries(exp, "seconds"))
		fmt.Println()
	}
	if *fig4b || all {
		fmt.Println("FIGURE 4b: average speed-up per number of GPUs")
		data, exp := experiments.Fig4b(rows)
		fmt.Print(experiments.FormatSeries(data, "x"))
		fmt.Print(experiments.FormatSeries(exp, "x"))
	}
	if *ablation {
		fmt.Println("ABLATION: data-parallel campaign under ring vs naive all-reduce")
		fmt.Print(experiments.FormatAllReduceAblation(
			experiments.RunAllReduceAblation(cfg.Params, cfg.GPUCounts)))
	}
}
