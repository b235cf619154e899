// Command benchtable regenerates the paper's evaluation artifacts from the
// cluster simulation: Table I (-table1), Figure 4a (-fig4a) and Figure 4b
// (-fig4b). With no selection flags it prints all three. Kernel and layer
// timings live in the repository benchmark (bash benchmark/run.sh --trace 1).
//
// Usage:
//
//	benchtable [-table1] [-fig4a] [-fig4b] [-trials N] [-reps N] [-seed N]
//	benchtable -dist [-dist-widths 1,2,4] [-dist-codecs none,fp16,int8]
//
// -dist leaves the simulation entirely: it spawns real worker processes
// (re-executing this binary) per width × codec cell and reports measured
// wall-clock step times over the TCP all-reduce ring, with fp16/int8
// gradient wire compression in the non-none columns.
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
	distBench := flag.Bool("dist", false, "measure real multi-process wall-clock step times (spawns worker processes) instead of the paper tables")
	distWidths := flag.String("dist-widths", "1,2,4", "comma-separated data-parallel widths for -dist")
	distCodecs := flag.String("dist-codecs", "none,fp16,int8", "comma-separated gradient codecs for -dist")
	distCases := flag.Int("dist-cases", 8, "phantom cases for -dist")
	distDim := flag.Int("dist-dim", 8, "cubic volume edge for -dist")
	distEpochs := flag.Int("dist-epochs", 2, "training epochs per -dist cell")
	distBatch := flag.Int("dist-batch", 4, "global batch for -dist (must divide by every width)")
	distWorkers := flag.Int("dist-workers", 0, "per-worker compute budget for -dist (0 = all cores)")
	distJoin := flag.String("dist-worker-join", "", "internal: run as a -dist worker process joining this coordinator address")
	distSpawnWorkers := flag.Int("dist-spawn-workers", 0, "internal: compute budget forwarded to a -dist worker process")
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

	if *distJoin != "" {
		if err := runDistWorkerMode(*distJoin, *distSpawnWorkers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *distBench {
		widths, err := parseWidths(*distWidths)
		if err != nil {
			log.Fatal(err)
		}
		codecs, err := parseCodecs(*distCodecs)
		if err != nil {
			log.Fatal(err)
		}
		end := tracer.Span("dist_bench")
		if err := runDistBench(distBenchConfig{
			widths: widths, codecs: codecs,
			cases: *distCases, dim: *distDim, epochs: *distEpochs,
			batch: *distBatch, workers: *distWorkers,
		}); err != nil {
			log.Fatal(err)
		}
		end("widths", *distWidths, "codecs", *distCodecs)
		return
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
