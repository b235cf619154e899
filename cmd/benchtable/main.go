// Command benchtable regenerates the paper's evaluation artifacts from the
// analytic cluster model in internal/experiments: Table I (-table1), Figure
// 4a (-fig4a) and Figure 4b (-fig4b). With no selection flags it prints all
// three; -ablation adds the ring-vs-naive all-reduce table. Kernel and
// layer timings live in the repository benchmark (bash benchmark/run.sh
// --trace 1).
//
// Usage:
//
//	benchtable [-table1] [-fig4a] [-fig4b] [-ablation] [-trials N] [-reps N] [-seed N]
//
// Measured multi-process step times are not modelled here: run
// distmis -mode coordinator -codec C, or the benchmark's dist.* probes.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
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
	seed := flag.Int64("seed", 0, "override the model's random seed")
	flag.Parse()

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

	rows, err := experiments.RunTable1(cfg)
	if err != nil {
		log.Fatal(err)
	}

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
