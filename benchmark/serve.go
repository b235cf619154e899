package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

const (
	serveReplicas = 2
	serveClients  = 2
)

// serveRig is one built serving instance: the request volumes, their
// reference segmentations and a running server warmed by one request per
// volume.
type serveRig struct {
	volumes   []*volume.Sample
	refs      []*tensor.Tensor
	srv       *serve.Server
	window    patch.SlidingWindow
	model     *unet.UNet // the reference model; replicas are built from the same seed
	inputHash string
}

func buildServeRig(p params) (*serveRig, error) {
	vols, err := p.serveVolumesData()
	if err != nil {
		return nil, err
	}
	ih := newInputHasher()
	ih.addSamples(vols)
	netCfg := p.net()
	model, err := unet.New(netCfg)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{
		volumes: vols, model: model, inputHash: ih.sum(),
		window: patch.SlidingWindow{Patch: [3]int{p.dim, p.dim, p.dim}, Stride: [3]int{p.dim, p.dim, p.dim}},
	}
	// The reference every response must equal bitwise: a standalone
	// sliding-window inference on a model with the same weights.
	for _, v := range vols {
		ref, err := rig.window.Infer(model, v)
		if err != nil {
			return nil, err
		}
		rig.refs = append(rig.refs, ref)
	}
	rig.srv, err = serve.New(serve.Config{
		Window: rig.window, Replicas: serveReplicas, MaxBatch: 4, MaxLinger: 2 * time.Millisecond, MaxQueue: 64,
		InChannels: netCfg.InChannels, ExtentDivisor: netCfg.MinVolume(),
	}, func() (serve.Model, error) { return unet.New(netCfg) })
	if err != nil {
		return nil, err
	}
	for i, v := range vols {
		got, err := rig.srv.Segment(v.Input)
		if err != nil || !sameBits(got, rig.refs[i]) {
			rig.srv.Close()
			return nil, fmt.Errorf("serve warm-up: volume %d: err %v, or response differs from reference", i, err)
		}
	}
	return rig, nil
}

// closedLoop drives the server with clients that each send their next
// request only when the previous one has returned, cycling the volumes from
// different offsets, until the window is used up. It returns the request
// latencies in ms.
func (rig *serveRig) closedLoop(clients int, seconds float64, out *outcome, rec *recorder, parent int) []float64 {
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i++ {
				v := i % len(rig.volumes)
				span := rec.begin("Segment", parent, "")
				t0 := time.Now()
				got, err := rig.srv.Segment(rig.volumes[v].Input)
				d := ms(time.Since(t0))
				rec.end(span)
				ok := err == nil && sameBits(got, rig.refs[v])
				mu.Lock()
				lat = append(lat, d)
				out.check(ok, "request %d (volume %d): err %v, or response differs from reference", i, v, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat
}

// runServe is the serve_multi_window workload. One op is one Segment
// request of four windows; a sample is one window. Traced, it also reports
// the serve/patch layer metrics from Stats deltas over the window.
func runServe(p params, rec *recorder) (*outcome, error) {
	out := newOutcome()
	rig, setupS, err := repeatSetup(p, func() (*serveRig, error) { return buildServeRig(p) },
		func(r *serveRig) { r.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer rig.srv.Close()
	out.metrics["setup_s"] = setupS
	out.notes["input_hash"] = rig.inputHash

	// The window runs as slices of a couple of seconds with a calibration
	// between them (the clients pause, the server stays up), so each slice's
	// latencies and wall-clock are calibrated against the box's speed then.
	root := rec.begin(wlServeMultiWindow, 0, wlServeMultiWindow)
	before, scratch0 := rig.srv.Stats(), tensor.ScratchStatsSnapshot()
	var lat []float64
	var wallS, calWallS float64
	meter := speedMeter{runs: p.calRuns}
	meter.start()
	for slices := math.Ceil(p.seconds / 2); wallS < p.seconds; {
		t0 := time.Now()
		l := rig.closedLoop(serveClients, p.seconds/slices, out, rec, root)
		w := time.Since(t0).Seconds()
		f := meter.segment()
		scale(l, f)
		lat, wallS, calWallS = append(lat, l...), wallS+w, calWallS+w*f
	}
	after, scratch1 := rig.srv.Stats(), tensor.ScratchStatsSnapshot()
	rec.end(root)

	windows := float64(after.Patches - before.Patches)
	out.metrics["samples_per_s"] = windows / calWallS
	out.metrics["op_ms_p50"] = median(lat)
	out.metrics["op_ms_p90"] = percentile(lat, 0.90)
	out.notes["ops"] = fmt.Sprintf("%s, %.1f req/s", sampleNote(len(lat), "requests"), float64(len(lat))/wallS)
	out.notes["speed"] = fmt.Sprintf("%.2f", median(meter.factors))
	if rec == nil {
		return out, nil
	}

	// Stage means over the window: Σ latency = mean × count of each
	// cumulative histogram, differenced around the window.
	stage := func(a, b serve.LatencyStats) float64 {
		n := b.Count - a.Count
		if n == 0 {
			return 0
		}
		return ms(b.Mean*time.Duration(b.Count)-a.Mean*time.Duration(a.Count)) / float64(n)
	}
	out.metrics["serve.queue_ms"] = stage(before.Queue, after.Queue)
	out.metrics["serve.dispatch_ms"] = stage(before.Batch, after.Batch)
	out.metrics["serve.compute_ms"] = stage(before.Compute, after.Compute)
	out.metrics["serve.blend_ms"] = stage(before.Blend, after.Blend)
	out.metrics["serve.batch_fill"] = windows / float64(after.Batches-before.Batches)
	out.metrics["serve.patches_per_s"] = windows / wallS
	rejected := float64(after.Rejected - before.Rejected)
	out.metrics["serve.rejected_share"] = rejected / (rejected + float64(after.Requests-before.Requests))
	out.metrics["tensor.scratch_allocs_per_req"] = float64(scratch1.Allocs-scratch0.Allocs) / float64(len(lat))

	// The latency floor: one client, one-window requests, so every request
	// waits out the full linger with nothing to batch with.
	single := &serveRig{srv: rig.srv, window: rig.window}
	for _, v := range rig.volumes {
		w, err := patch.Extract(v, 0, 0, 0, p.dim, p.dim, p.dim)
		if err != nil {
			return nil, err
		}
		ref, err := rig.window.Infer(rig.model, w)
		if err != nil {
			return nil, err
		}
		single.volumes, single.refs = append(single.volumes, w), append(single.refs, ref)
	}
	out.metrics["serve.single_window_ms_p50"] = median(single.closedLoop(1, p.seconds/4, out, nil, 0))

	// The blend path the disjoint-window workload bypasses: overlapping
	// Gaussian-weighted windows through the standalone sliding window.
	overlap := patch.SlidingWindow{
		Patch: rig.window.Patch, Stride: [3]int{p.dim / 2, p.dim / 2, p.dim / 2}, Blend: patch.BlendGaussian,
	}
	out.metrics["patch.infer_overlap_ms"] = timeMs(p.probeReps, func() {
		if _, e := overlap.Infer(rig.model, rig.volumes[0]); e != nil {
			err = e
		}
	})
	return out, err
}
