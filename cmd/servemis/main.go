// Command servemis serves segmentation requests from a trained U-Net
// checkpoint through the internal/serve micro-batching inference server.
//
// Serving mode exposes an HTTP endpoint speaking JSON or raw binary:
//
//	POST /v1/segment   application/octet-stream body of little-endian
//	                   float32 voxels with an X-Volume-Shape: C,D,H,W
//	                   header, or application/json {"shape":[C,D,H,W],
//	                   "data":[...]}; the response mirrors the request
//	                   encoding. 503 + Retry-After under backpressure.
//	POST /v1/reload    {"path": "model.ckpt"} — atomic checkpoint hot-swap.
//	POST /v1/feedback  a corrected segmentation: binary body of input then
//	                   mask voxels with X-Volume-Shape and X-Mask-Shape
//	                   headers, or JSON {"name", "input": {"shape","data"},
//	                   "mask": {"shape","data"}}. Requires -online.
//	GET  /v1/stats     counters and per-stage latency histograms as JSON
//	                   (plus an Online block when -online is set).
//	GET  /metrics      the same counters in Prometheus text format.
//	GET  /healthz      liveness probe.
//
// With -online the process additionally runs the continual-learning
// controller (internal/online): accepted feedback lands in a persistent
// replay buffer, a shadow model fine-tunes on it in the background, and an
// eval gate hot-swaps improved generations into the live server — with
// automatic rollback if post-promotion feedback quality regresses. State
// lives under -online-dir so restarts resume mid-campaign.
//
// With -pprof the standard net/http/pprof endpoints are additionally
// mounted under /debug/pprof/ on the same listener.
//
// Closed-loop serving throughput and latency are measured by the
// repository benchmark's serve_multi_window workload (bash benchmark/run.sh).
//
// Usage:
//
//	servemis [-addr :8377] [-ckpt model.ckpt] [-replicas N] [-maxbatch N]
//	         [-linger D] [-queue N] [-patch N] [-stride N]
//	         [-blend uniform|gaussian] [-workers N]
//	         [-filters N] [-steps N] [-in N] [-out N] [-seed N]
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/msd"
	"repro/internal/online"
	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servemis: ")

	addr := flag.String("addr", ":8377", "HTTP listen address")
	ckptPath := flag.String("ckpt", "", "checkpoint to serve (empty: random init, for smoke tests)")
	replicas := flag.Int("replicas", 2, "model replicas serving micro-batches round-robin")
	maxBatch := flag.Int("maxbatch", 4, "max patches per micro-batch")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait for a micro-batch to fill")
	queueDepth := flag.Int("queue", 64, "max outstanding patches before requests are rejected")
	patchEdge := flag.Int("patch", 16, "cubic sliding-window edge")
	stride := flag.Int("stride", 0, "sliding-window stride (0 = patch edge, no overlap)")
	blend := flag.String("blend", "uniform", "overlap blending: uniform or gaussian")
	workers := flag.Int("workers", 0, "compute-worker budget shared across replicas (0 = all cores)")

	inC := flag.Int("in", 4, "U-Net input channels")
	outC := flag.Int("out", 1, "U-Net output channels")
	filters := flag.Int("filters", 8, "U-Net base filters")
	steps := flag.Int("steps", 3, "U-Net resolution steps")
	seed := flag.Int64("seed", 1, "weight init seed (used when -ckpt is empty)")

	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")

	onlineOn := flag.Bool("online", false, "run the continual-learning controller (enables /v1/feedback)")
	onlineDir := flag.String("online-dir", "", "state directory for buffer/session/model checkpoints (empty: in-memory only)")
	onlineMargin := flag.Float64("online-margin", 0.01, "holdout-Dice improvement required for promotion")
	onlineRollback := flag.Float64("online-rollback", 0.05, "feedback-Dice regression that triggers rollback")
	onlineEpochs := flag.Int("online-epochs", 1, "fine-tuning epochs per shadow generation")
	onlineMinFb := flag.Int("online-min-feedback", 1, "new feedback samples required before a generation trains")
	onlineInterval := flag.Duration("online-interval", 2*time.Second, "background controller tick period")
	onlineBuffer := flag.Int("online-buffer", 64, "replay buffer capacity")
	onlineCases := flag.Int("online-cases", 4, "base phantom training cases mixed into each generation")
	onlineHoldout := flag.Int("online-holdout", 2, "held-out phantom cases scoring the eval gate")
	onlineDim := flag.Int("online-dim", 16, "phantom volume edge for base/holdout sets")
	onlineLR := flag.Float64("online-lr", 0.01, "shadow fine-tuning learning rate")
	onlineBatch := flag.Int("online-batch", 1, "shadow fine-tuning batch size")

	flag.Parse()

	var blendMode patch.BlendMode
	switch *blend {
	case "uniform":
		blendMode = patch.BlendUniform
	case "gaussian":
		blendMode = patch.BlendGaussian
	default:
		log.Fatalf("unknown blend mode %q (want uniform or gaussian)", *blend)
	}
	if *stride <= 0 {
		*stride = *patchEdge
	}

	netCfg := unet.Config{
		InChannels:  *inC,
		OutChannels: *outC,
		BaseFilters: *filters,
		Steps:       *steps,
		Kernel:      3,
		UpKernel:    2,
		Seed:        *seed,
	}
	if err := netCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{
		Window: patch.SlidingWindow{
			Patch:  [3]int{*patchEdge, *patchEdge, *patchEdge},
			Stride: [3]int{*stride, *stride, *stride},
			Blend:  blendMode,
		},
		Replicas:      *replicas,
		MaxBatch:      *maxBatch,
		MaxLinger:     *linger,
		MaxQueue:      *queueDepth,
		Workers:       *workers,
		InChannels:    *inC,
		ExtentDivisor: netCfg.MinVolume(),
		Telemetry:     telemetry.Default(),
	}

	srv, err := serve.New(cfg, func() (serve.Model, error) { return unet.New(netCfg) })
	if err != nil {
		log.Fatal(err)
	}
	if *ckptPath != "" {
		if err := srv.Reload(*ckptPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("serving checkpoint %s", *ckptPath)
	} else {
		log.Printf("no -ckpt given: serving randomly initialized weights (seed %d)", *seed)
	}

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer, err = telemetry.NewTracerFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer tracer.Close()
	}

	var ctrl *online.Controller
	if *onlineOn {
		ctrl, err = newOnlineController(onlineOptions{
			net: netCfg, srv: srv, tracer: tracer,
			ckptPath: *ckptPath, dir: *onlineDir,
			margin: *onlineMargin, rollback: *onlineRollback,
			epochs: *onlineEpochs, minFeedback: *onlineMinFb,
			interval: *onlineInterval, buffer: *onlineBuffer,
			cases: *onlineCases, holdout: *onlineHoldout, dim: *onlineDim,
			lr: *onlineLR, batch: *onlineBatch, seed: *seed, workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		ctrl.Start()
		log.Printf("online controller running (generation %d, margin %.3f, tick %s)",
			ctrl.Generation(), *onlineMargin, *onlineInterval)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/segment", func(w http.ResponseWriter, r *http.Request) { handleSegment(srv, w, r) })
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) { handleReload(srv, w, r) })
	if ctrl != nil {
		mux.HandleFunc("POST /v1/feedback", func(w http.ResponseWriter, r *http.Request) { handleFeedback(ctrl, w, r) })
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		// The online block rides alongside the embedded serving stats so
		// existing consumers keep their top-level fields.
		payload := struct {
			serve.Stats
			Online *online.Stats `json:",omitempty"`
		}{Stats: srv.Stats()}
		if ctrl != nil {
			st := ctrl.Stats()
			payload.Online = &st
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	})
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if *pprofOn {
		telemetry.RegisterPprof(mux)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("draining...")
		httpSrv.Close()
		if ctrl != nil {
			if err := ctrl.Close(); err != nil {
				log.Printf("online controller shutdown: %v", err)
			}
		}
		srv.Close()
		if tracer != nil {
			tracer.Close()
		}
		close(done)
	}()
	log.Printf("listening on %s (replicas=%d maxbatch=%d linger=%s queue=%d)",
		*addr, *replicas, *maxBatch, *linger, *queueDepth)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// maxVoxels bounds a request volume at 1 GiB of float32; maxBodyBytes
// bounds the raw request body accordingly on both encodings.
const (
	maxVoxels    = 1 << 28
	maxBodyBytes = 4*maxVoxels + 1<<12
)

// handleSegment decodes a volume (binary or JSON), runs it through the
// server, and mirrors the encoding back.
func handleSegment(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	var (
		x   *tensor.Tensor
		err error
	)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	isJSON := strings.HasPrefix(r.Header.Get("Content-Type"), "application/json")
	if isJSON {
		x, err = readJSONVolume(r.Body)
	} else {
		x, err = readBinaryVolume(r.Body, r.Header.Get("X-Volume-Shape"))
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	out, err := srv.Segment(x)
	if err != nil {
		var over *serve.OverloadedError
		if errors.As(err, &over) {
			w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter.Seconds())+1))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if isJSON {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(volumeJSON{Shape: out.Shape(), Data: out.Data()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Volume-Shape", shapeHeader(out.Shape()))
	writeBinaryVolume(w, out)
}

func handleReload(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
		http.Error(w, "want JSON body {\"path\": \"model.ckpt\"}", http.StatusBadRequest)
		return
	}
	if err := srv.Reload(req.Path); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "reloaded")
}

// onlineOptions gathers the -online* flag values.
type onlineOptions struct {
	net         unet.Config
	srv         *serve.Server
	tracer      *telemetry.Tracer
	ckptPath    string
	dir         string
	margin      float64
	rollback    float64
	epochs      int
	minFeedback int
	interval    time.Duration
	buffer      int
	cases       int
	holdout     int
	dim         int
	lr          float64
	batch       int
	seed        int64
	workers     int
}

// newOnlineController builds the continual-learning controller: phantom
// base and holdout sets (deterministic in the seed), the replay buffer,
// and — when no previous state is resumed — a bootstrap of the served
// checkpoint into the shadow so fine-tuning continues from it.
func newOnlineController(o onlineOptions) (*online.Controller, error) {
	mv := o.net.MinVolume()
	if o.dim%mv != 0 {
		return nil, fmt.Errorf("-online-dim %d must be divisible by %d", o.dim, mv)
	}
	gen := func(n int, seed int64) ([]*volume.Sample, error) {
		cfg := msd.Config{Cases: n, D: o.dim, H: o.dim, W: o.dim, Seed: seed}
		out := make([]*volume.Sample, n)
		for i := range out {
			s, err := volume.Preprocess(msd.GenerateCase(cfg, i), mv)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	base, err := gen(o.cases, o.seed)
	if err != nil {
		return nil, err
	}
	holdout, err := gen(o.holdout, o.seed+1<<32)
	if err != nil {
		return nil, err
	}
	buf, err := online.NewReplayBuffer(o.buffer, o.seed)
	if err != nil {
		return nil, err
	}

	resuming := false
	if o.dir != "" {
		if _, err := os.Stat(filepath.Join(o.dir, "buffer.ckpt")); err == nil {
			resuming = true
		}
	}
	ctrl, err := online.NewController(online.Config{
		Net: o.net, Loss: "dice", Optimizer: "adam",
		LR: o.lr, Workers: o.workers,
		Base: base, Holdout: holdout, Buffer: buf,
		GenEpochs: o.epochs, MinFeedback: o.minFeedback, GlobalBatch: o.batch,
		Margin: o.margin, RollbackMargin: o.rollback,
		Dir: o.dir, Seed: o.seed, Interval: o.interval,
		Tracer: o.tracer, Telemetry: telemetry.Default(),
		Promoter: o.srv,
	})
	if err != nil {
		return nil, err
	}
	if o.ckptPath != "" && !resuming {
		// Fine-tune from the served checkpoint, not from random init; a
		// resumed state directory already carries the newer weights.
		if _, err := ckpt.LoadModelFile(o.ckptPath, ctrl.Shadow()); err != nil {
			return nil, fmt.Errorf("bootstrapping shadow from %s: %w", o.ckptPath, err)
		}
		if err := ctrl.SyncLive(); err != nil {
			return nil, err
		}
	}
	return ctrl, nil
}

// feedbackJSON is the JSON encoding of a corrected segmentation.
type feedbackJSON struct {
	Name  string     `json:"name"`
	Input volumeJSON `json:"input"`
	Mask  volumeJSON `json:"mask"`
}

// handleFeedback decodes a corrected segmentation (binary or JSON) and
// hands it to the controller; validation failures are 400s.
func handleFeedback(ctrl *online.Controller, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var (
		s   *volume.Sample
		err error
	)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		s, err = readJSONFeedback(r.Body)
	} else {
		s, err = readBinaryFeedback(r.Body, r.Header.Get("X-Volume-Shape"), r.Header.Get("X-Mask-Shape"))
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("feedback-%d", time.Now().UnixNano())
	}
	if err := ctrl.Feedback(s); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := ctrl.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"accepted":   true,
		"generation": st.Generation,
		"buffered":   st.BufferLen,
	})
}

func readJSONFeedback(r io.Reader) (*volume.Sample, error) {
	var fb feedbackJSON
	if err := json.NewDecoder(r).Decode(&fb); err != nil {
		return nil, fmt.Errorf("bad JSON feedback: %w", err)
	}
	input, err := tensorFromParts(fb.Input.Shape, fb.Input.Data)
	if err != nil {
		return nil, fmt.Errorf("feedback input: %w", err)
	}
	mask, err := tensorFromParts(fb.Mask.Shape, fb.Mask.Data)
	if err != nil {
		return nil, fmt.Errorf("feedback mask: %w", err)
	}
	return &volume.Sample{Name: fb.Name, Input: input, Mask: mask}, nil
}

func readBinaryFeedback(r io.Reader, volHdr, maskHdr string) (*volume.Sample, error) {
	input, err := readBinaryVolume(r, volHdr)
	if err != nil {
		return nil, fmt.Errorf("feedback input: %w", err)
	}
	if maskHdr == "" {
		return nil, fmt.Errorf("missing X-Mask-Shape header (want 1,D,H,W)")
	}
	mask, err := readBinaryVolume(r, maskHdr)
	if err != nil {
		return nil, fmt.Errorf("feedback mask: %w", err)
	}
	return &volume.Sample{Input: input, Mask: mask}, nil
}

type volumeJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

func readJSONVolume(r io.Reader) (*tensor.Tensor, error) {
	var v volumeJSON
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("bad JSON volume: %w", err)
	}
	return tensorFromParts(v.Shape, v.Data)
}

func readBinaryVolume(r io.Reader, shapeHdr string) (*tensor.Tensor, error) {
	shape, err := parseShapeHeader(shapeHdr)
	if err != nil {
		return nil, err
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n > maxVoxels {
		return nil, fmt.Errorf("volume of %d voxels exceeds the %d limit", n, maxVoxels)
	}
	raw := make([]byte, 4*n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("body shorter than shape %v: %w", shape, err)
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return tensorFromParts(shape, data)
}

func writeBinaryVolume(w io.Writer, t *tensor.Tensor) {
	data := t.Data()
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	w.Write(raw)
}

func shapeHeader(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

func parseShapeHeader(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing X-Volume-Shape header (want C,D,H,W)")
	}
	parts := strings.Split(s, ",")
	shape := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad X-Volume-Shape %q", s)
		}
		shape[i] = d
	}
	return shape, nil
}

func tensorFromParts(shape []int, data []float32) (*tensor.Tensor, error) {
	if len(shape) != 4 {
		return nil, fmt.Errorf("volume shape must be [C, D, H, W], got %v", shape)
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("non-positive dimension in shape %v", shape)
		}
		n *= d
	}
	if n > maxVoxels {
		return nil, fmt.Errorf("volume of %d voxels exceeds the %d limit", n, maxVoxels)
	}
	if len(data) != n {
		return nil, fmt.Errorf("%d voxels for shape %v (want %d)", len(data), shape, n)
	}
	return tensor.FromSlice(data, shape...), nil
}
