// Pipeline_offline reproduces the paper's input-pipeline finding (§III-B.1):
// profiling shows that NIfTI loading and binarization dominate preprocessing,
// and because inputs are identical every epoch, binarizing offline into
// TFRecords removes that cost from the training loop. The example builds a
// dataset on disk, then feeds three simulated training epochs twice — once
// decoding NIfTI per epoch (online) and once reading pre-binarized records
// (offline) — through the interleave → map → prefetch pipeline, and prints
// the per-stage span report with its bottleneck stage.
//
// Run with: go run ./examples/pipeline_offline
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/msd"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

const (
	epochs   = 3
	caseDim  = 16
	numCases = 12
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "distmis-pipeline")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds, err := msd.Generate(msd.Config{Cases: numCases, D: caseDim, H: caseDim, W: caseDim, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.WriteNIfTI(dir); err != nil {
		log.Fatal(err)
	}
	names, err := msd.ListCases(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Offline binarization: preprocess once, serialize as TFRecords. The
	// one-time cost is timed separately from the per-epoch spans so the
	// bottleneck report reflects what happens inside the training loop.
	prof := telemetry.NewSpanGroup()
	binarizeStart := time.Now()
	recPath := filepath.Join(dir, "train.tfrecord")
	func() {
		var samples []*volume.Sample
		for _, n := range names {
			v, err := msd.LoadCase(dir, n)
			if err != nil {
				log.Fatal(err)
			}
			s, err := volume.Preprocess(v, 4)
			if err != nil {
				log.Fatal(err)
			}
			samples = append(samples, s)
		}
		f, err := os.Create(recPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := record.WriteSamples(f, samples); err != nil {
			log.Fatal(err)
		}
	}()
	binarizeTime := time.Since(binarizeStart)

	// Online pipeline: decode + preprocess every epoch.
	online := func() pipeline.Dataset[*volume.Sample] {
		d := pipeline.Interleave(pipeline.FromSlice(names), 4, func(n string) pipeline.Dataset[*volume.Sample] {
			return pipeline.FromFunc(1, func(int) *volume.Sample {
				defer prof.Span("nifti-load")()
				v, err := msd.LoadCase(dir, n)
				if err != nil {
					log.Fatal(err)
				}
				s, err := volume.Preprocess(v, 4)
				if err != nil {
					log.Fatal(err)
				}
				return s
			})
		})
		return pipeline.Prefetch(d, 4)
	}

	// Offline pipeline: records decoded straight into tensors.
	offline := func() pipeline.Dataset[*volume.Sample] {
		raw, err := os.ReadFile(recPath)
		if err != nil {
			log.Fatal(err)
		}
		d := pipeline.FromFunc(1, func(int) []byte { return raw })
		flat := pipeline.Interleave(d, 1, func(buf []byte) pipeline.Dataset[*volume.Sample] {
			samples, err := record.ReadSamples(bytes.NewReader(buf))
			if err != nil {
				log.Fatal(err)
			}
			return pipeline.FromSlice(samples)
		})
		return pipeline.Prefetch(flat, 4)
	}

	run := func(build func() pipeline.Dataset[*volume.Sample]) time.Duration {
		start := time.Now()
		for e := 0; e < epochs; e++ {
			it := build().Iterate()
			for {
				s, ok := it.Next()
				if !ok {
					break
				}
				// Stand-in for the training step: touch every voxel once.
				func() {
					defer prof.Span("train-step")()
					var sum float64
					for _, v := range s.Input.Data() {
						sum += float64(v)
					}
					_ = sum
				}()
			}
			it.Close()
		}
		return time.Since(start)
	}

	onlineTime := run(online)
	offlineTime := run(offline)

	fmt.Printf("one-time offline binarization:       %8s\n", binarizeTime.Round(time.Millisecond))
	fmt.Printf("online  (NIfTI decode every epoch):  %8s\n", onlineTime.Round(time.Millisecond))
	fmt.Printf("offline (pre-binarized TFRecords):   %8s\n", offlineTime.Round(time.Millisecond))
	fmt.Printf("offline speedup: %.2fx over %d epochs\n\n", float64(onlineTime)/float64(offlineTime), epochs)
	// Stats sorts stages by descending total, so the first is the
	// bottleneck.
	stats := prof.Stats()
	fmt.Println("span report (cumulative):")
	fmt.Printf("%-16s %12s %8s %12s %7s\n", "stage", "total", "count", "mean", "share")
	for _, st := range stats {
		fmt.Printf("%-16s %12s %8d %12s %6.1f%%\n",
			st.Stage, st.Total.Round(time.Microsecond), st.Count,
			st.Mean.Round(time.Microsecond), st.Fraction*100)
	}
	fmt.Printf("\nbottleneck stage: %s — matching the paper's Tensorboard finding\n", stats[0].Stage)
}
