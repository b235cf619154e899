// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations around them. Run with:
//
//	go test -bench=. -benchmem
//
// Table I and Figure 4 benches execute the full discrete-event campaign
// simulation and report the resulting speed-ups as benchmark metrics;
// the pipeline and all-reduce benches measure the real implementations.
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/loss"
	"repro/internal/msd"
	"repro/internal/netsim"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

// BenchmarkTable1 regenerates the paper's Table I (both methods, 1..32
// GPUs, 3 repetitions) per iteration and reports the headline speed-ups.
func BenchmarkTable1(b *testing.B) {
	cfg, err := experiments.PaperCampaign()
	if err != nil {
		b.Fatal(err)
	}
	var rows []experiments.Measurement
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Data.Speedup, "data-speedup@32")
	b.ReportMetric(last.Exp.Speedup, "exp-speedup@32")
}

// BenchmarkTable1DataParallel times one data-parallel campaign per GPU
// count (the left half of Table I).
func BenchmarkTable1DataParallel(b *testing.B) {
	p, err := perfmodel.Paper()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range experiments.PaperGPUCounts {
		b.Run(fmt.Sprintf("gpus=%d", n), func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(1))
				epochs := make([]int, 32)
				for j := range epochs {
					epochs[j] = p.ConvergenceEpochs(rng)
				}
				sec = experiments.DataParallelCampaignSec(p, n, epochs, rng)
			}
			b.ReportMetric(sec/3600, "simulated-hours")
		})
	}
}

// BenchmarkTable1ExperimentParallel times one experiment-parallel campaign
// per GPU count (the right half of Table I).
func BenchmarkTable1ExperimentParallel(b *testing.B) {
	p, err := perfmodel.Paper()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range experiments.PaperGPUCounts {
		b.Run(fmt.Sprintf("gpus=%d", n), func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(1))
				epochs := make([]int, 32)
				for j := range epochs {
					epochs[j] = p.ConvergenceEpochs(rng)
				}
				sec = experiments.ExperimentParallelCampaignSec(p, n, epochs, rng)
			}
			b.ReportMetric(sec/3600, "simulated-hours")
		})
	}
}

// BenchmarkFig4a regenerates the elapsed-time curves with whiskers.
func BenchmarkFig4a(b *testing.B) {
	cfg, err := experiments.PaperCampaign()
	if err != nil {
		b.Fatal(err)
	}
	var dataS, expS experiments.Series
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dataS, expS = experiments.Fig4a(rows)
	}
	b.ReportMetric(dataS.Mean[len(dataS.Mean)-1]/3600, "data-hours@32")
	b.ReportMetric(expS.Mean[len(expS.Mean)-1]/3600, "exp-hours@32")
}

// BenchmarkFig4b regenerates the speed-up curves.
func BenchmarkFig4b(b *testing.B) {
	cfg, err := experiments.PaperCampaign()
	if err != nil {
		b.Fatal(err)
	}
	var dataS, expS experiments.Series
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dataS, expS = experiments.Fig4b(rows)
	}
	b.ReportMetric(dataS.Mean[len(dataS.Mean)-1], "data-speedup@32")
	b.ReportMetric(expS.Mean[len(expS.Mean)-1], "exp-speedup@32")
}

// benchSamples builds a small preprocessed dataset once per benchmark.
func benchSamples(b *testing.B, n, dim int) []*volume.Sample {
	b.Helper()
	cfg := msd.Config{Cases: n, D: dim, H: dim, W: dim, Seed: 3}
	out := make([]*volume.Sample, n)
	for i := 0; i < n; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 4)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// BenchmarkPipelineOnlineVsOffline reproduces the §III-B.1 ablation: one
// training epoch's input path with per-epoch preprocessing (online) versus
// pre-binarized TFRecords (offline).
func BenchmarkPipelineOnlineVsOffline(b *testing.B) {
	cfg := msd.Config{Cases: 8, D: 12, H: 12, W: 12, Seed: 5}
	var buf bytes.Buffer
	samples := make([]*volume.Sample, cfg.Cases)
	for i := range samples {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 4)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = s
	}
	if err := record.WriteSamples(&buf, samples); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("online", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Regenerate + preprocess every epoch, as before the paper's fix.
			for c := 0; c < cfg.Cases; c++ {
				if _, err := volume.Preprocess(msd.GenerateCase(cfg, c), 4); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("offline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := record.ReadSamples(bytes.NewReader(raw))
			if err != nil || len(got) != cfg.Cases {
				b.Fatalf("%v (%d samples)", err, len(got))
			}
		}
	})
}

// BenchmarkAllReduce times the flat and the grouped (4 replicas per node)
// ring all-reduce over in-process links at the paper's gradient size.
func BenchmarkAllReduce(b *testing.B) {
	const replicas = 8
	size := unet.MustNew(unet.PaperConfig()).ParamCount()
	for _, tc := range []struct {
		name      string
		groupSize int
	}{{"ring", 0}, {"hierarchical", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			bufs := make([][]float32, replicas)
			for i := range bufs {
				bufs[i] = make([]float32, size)
				for j := range bufs[i] {
					bufs[i][j] = float32(i + j)
				}
			}
			tops := allreduce.LocalTopologies(replicas, tc.groupSize, allreduce.NetConfig{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r, tp := range tops {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := tp.AllReduce(bufs[r]); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkAllReduceModel compares the analytic ring vs naive cost at the
// paper's message size across the GPU ladder.
func BenchmarkAllReduceModel(b *testing.B) {
	f := netsim.MareNostrum()
	size := 4.0 * float64(unet.MustNew(unet.PaperConfig()).ParamCount())
	var ring, naive float64
	for i := 0; i < b.N; i++ {
		for _, n := range experiments.PaperGPUCounts {
			ring += f.RingAllReduceTime(size, n, 1e-3)
			naive += f.NaiveAllReduceTime(size, n, 1e-3)
		}
	}
	b.ReportMetric(naive/ring, "naive/ring-cost")
}

// BenchmarkUNetTrainStep measures a full real training step: forward, Dice
// loss, backward.
func BenchmarkUNetTrainStep(b *testing.B) {
	cfg := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 3, Kernel: 3, UpKernel: 2, Seed: 1}
	u := unet.MustNew(cfg)
	s := benchSamples(b, 2, 16)
	in, mask, err := volume.Batch(s)
	if err != nil {
		b.Fatal(err)
	}
	l := loss.NewDice()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.ZeroGrads()
		pred := u.Forward(in)
		_, grad := l.Eval(pred, mask)
		u.Backward(grad)
	}
}

// BenchmarkPrefetchDepth sweeps the pipeline prefetch depth.
func BenchmarkPrefetchDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := pipeline.FromFunc(64, func(i int) *tensor.Tensor {
					t := tensor.New(4, 8, 8)
					t.Fill(float32(i))
					return t
				})
				n := pipeline.Prefetch(d, depth).Count()
				if n != 64 {
					b.Fatalf("lost elements: %d", n)
				}
			}
		})
	}
}

// BenchmarkInterleaveWidth sweeps the interleave cycle length.
func BenchmarkInterleaveWidth(b *testing.B) {
	for _, cycle := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cycle=%d", cycle), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shards := pipeline.FromFunc(8, func(i int) int { return i })
				d := pipeline.Interleave(shards, cycle, func(shard int) pipeline.Dataset[int] {
					return pipeline.FromFunc(16, func(j int) int { return shard*16 + j })
				})
				if n := d.Count(); n != 128 {
					b.Fatalf("lost elements: %d", n)
				}
			}
		})
	}
}

// BenchmarkMemoryModel exercises the 16 GB memory wall check across batch
// sizes (ablation: per-replica batch 1 vs 2 under the V100 model).
func BenchmarkMemoryModel(b *testing.B) {
	dev := gpusim.V100()
	cost, err := gpusim.CostUNet(unet.PaperConfig(), 152, 240, 240)
	if err != nil {
		b.Fatal(err)
	}
	fits := 0
	for i := 0; i < b.N; i++ {
		fits = 0
		for batch := 1; batch <= 8; batch++ {
			if dev.FitsMemory(cost, batch) {
				fits++
			}
		}
	}
	b.ReportMetric(float64(fits), "max-batch")
}
