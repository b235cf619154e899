// Benchmarks of the real implementations: the online vs offline input
// pipeline (the paper's §III-B.1 ablation), the ring all-reduce and a U-Net
// training step. Run with:
//
//	go test -run XXX -bench=. -benchmem
//
// Table I and Figure 4 come from the analytic model (go run ./cmd/benchtable);
// internal/experiments' golden test pins their numbers.
package repro

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/loss"
	"repro/internal/msd"
	"repro/internal/record"
	"repro/internal/unet"
	"repro/internal/volume"
)

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
