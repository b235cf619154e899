// Serving: from a trained checkpoint to a concurrent segmentation service.
//
// It trains a scaled-down 3D U-Net for a moment, checkpoints it, then
// stands up the internal/serve micro-batching inference server on that
// checkpoint: several concurrent clients submit full brain phantoms, the
// server decomposes them into sliding-window patches, coalesces patches
// across requests into micro-batches over two model replicas, and blends
// the predictions back into full-volume probability maps. It finishes by
// hot-swapping the checkpoint under load and printing the per-stage
// latency statistics.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/msd"
	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)

	netCfg := unet.Config{
		InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 1,
	}

	// 1. "Train" a model (one gradient step stands in for a campaign) and
	// checkpoint it — parameters and batch-norm running statistics.
	dir, err := os.MkdirTemp("", "serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "model.ckpt")

	u := unet.MustNew(netCfg)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 0, 1, 1, 4, 8, 8, 8)
	g := tensor.Randn(rng, 0, 1, 1, 1, 8, 8, 8)
	u.Forward(x)
	u.Backward(g)
	for _, p := range u.Params() {
		p.Value.AddScaled(-0.01, p.Grad)
	}
	if err := ckpt.SaveFile(ckptPath, u, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d-parameter U-Net to %s\n", u.ParamCount(), ckptPath)

	// 2. Serve it: 2 replicas, micro-batches of up to 4 patches coalesced
	// across requests, Gaussian overlap blending.
	srv, err := serve.New(serve.Config{
		Window: patch.SlidingWindow{
			Patch:  [3]int{4, 4, 4},
			Stride: [3]int{2, 2, 2},
			Blend:  patch.BlendGaussian,
		},
		Replicas:      2,
		MaxBatch:      4,
		MaxLinger:     time.Millisecond,
		MaxQueue:      256,
		InChannels:    netCfg.InChannels,
		ExtentDivisor: netCfg.MinVolume(),
	}, func() (serve.Model, error) { return unet.New(netCfg) })
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reload(ckptPath); err != nil {
		log.Fatal(err)
	}

	// 3. Concurrent clients with distinct phantom volumes.
	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := msd.GenerateCase(msd.Config{Cases: clients, D: 8, H: 8, W: 8, Seed: 9}, c)
			s, err := volume.Preprocess(v, netCfg.MinVolume())
			if err != nil {
				log.Fatal(err)
			}
			out, err := srv.Segment(s.Input)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("client %d: segmented %v -> mean tumour probability %.4f\n",
				c, s.Input.Shape(), out.Mean())
		}(c)
	}
	wg.Wait()

	// 4. Hot-swap the checkpoint (here: the same file) without dropping
	// the service, then report the per-stage latency breakdown.
	if err := srv.Reload(ckptPath); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("\nserved %d requests as %d patches in %d micro-batches (avg fill %.2f), %d reloads\n",
		st.Requests, st.Patches, st.Batches, st.AvgBatchFill, st.Reloads)
	fmt.Printf("latency p50/p99: total %s/%s, queue %s/%s, compute %s/%s, blend %s/%s\n",
		st.Total.P50.Round(time.Microsecond), st.Total.P99.Round(time.Microsecond),
		st.Queue.P50.Round(time.Microsecond), st.Queue.P99.Round(time.Microsecond),
		st.Compute.P50.Round(time.Microsecond), st.Compute.P99.Round(time.Microsecond),
		st.Blend.P50.Round(time.Microsecond), st.Blend.P99.Round(time.Microsecond))
}
