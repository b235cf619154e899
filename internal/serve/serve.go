// Package serve turns a trained U-Net checkpoint into a concurrent,
// batched, latency-bounded segmentation service — the production layer the
// paper's pipeline stops short of.
//
// Concurrent segmentation requests are decomposed into sliding-window
// patches; patches from different requests are coalesced into fixed-size
// micro-batches (bounded by MaxBatch and a MaxLinger deadline) and run
// through whichever of N model replicas is idle, via the no-grad inference
// fast path, so cross-request batching feeds the blocked GEMM larger
// matrices — the same utilization argument the paper makes for batch and
// replica scaling.
// Each replica copies a window's prediction into its request's one
// prediction buffer, and Segment blends the request (uniform or Gaussian
// overlap weighting) into its full-volume probability map once every
// window is in.
//
// Because Infer gives a window the same bits whatever its batch neighbours
// (unet's TestInferBatchInvariant) and the blend adds a request's windows
// in scan order whatever order they completed in, a batched result is
// bitwise identical to a standalone patch.SlidingWindow.Infer on the same
// checkpoint, no matter how requests interleave
// (TestBatchedMatchesReference, TestBlendIgnoresCompletionOrder).
//
// Admission control bounds the queue: past MaxQueue outstanding patches a
// request is rejected immediately with a retry-after estimate instead of
// growing the tail. A Stats snapshot exposes per-stage latency histograms
// (queue, wait for an idle replica, compute, blend) and throughput counters.
// SwapModel atomically hot-swaps all replicas onto new in-memory weights
// between requests — a swap drains in-flight requests first, so every
// response reflects exactly one model generation — and Reload is the
// checkpoint-file wrapper over it; Close drains in-flight requests before
// returning.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/patch"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Model is one servable replica: a forward-only Infer, whose result may be a
// buffer the model overwrites on its next Infer (each prediction is copied
// out at once), named parameters for checkpoint loading, and a worker
// budget so replicas can share the machine. unet.UNet satisfies it;
// models also implementing nn.AuxStater get their auxiliary state (batch
// norm running statistics) restored on Reload.
type Model interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
	Params() []*nn.Param
	SetWorkers(workers int)
}

// Config tunes the server. The zero value of any field selects its default.
type Config struct {
	// Window is the sliding-window decomposition applied to every request;
	// its blend mode is honoured. Required.
	Window patch.SlidingWindow

	// Replicas is the number of model instances serving micro-batches, each
	// batch going to whichever replica is idle (default 1).
	Replicas int

	// MaxBatch bounds the patches coalesced into one micro-batch
	// (default 4).
	MaxBatch int

	// MaxLinger bounds how long a forming micro-batch waits for more
	// patches after its first (default 2ms).
	MaxLinger time.Duration

	// MaxQueue bounds outstanding patches (queued plus in compute);
	// requests that would exceed it are rejected with a retry-after
	// estimate (default 64).
	MaxQueue int

	// Workers is the total compute budget divided across replicas with
	// parallel.ShareN; 0 means the parallel package default.
	Workers int

	// InChannels, when positive, is validated against every request's
	// channel dimension at admission, so a malformed request is rejected
	// with an error instead of panicking a replica worker.
	InChannels int

	// ExtentDivisor, when positive, requires every window extent to be
	// divisible by it — set it to the model's minimum volume divisor
	// (unet.Config.MinVolume) to reject volumes the network cannot take.
	ExtentDivisor int

	// Telemetry is the metrics registry the server registers its counters,
	// gauges and per-stage latency histograms in — pass telemetry.Default()
	// to expose them on a process-wide /metrics endpoint. Nil means a
	// private registry: Stats still works, nothing is shared.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = 2 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	return c
}

// OverloadedError is returned by Segment when admission control rejects a
// request: the queue already holds MaxQueue outstanding patches. RetryAfter
// estimates when capacity frees up, from the smoothed per-patch compute
// time.
type OverloadedError struct {
	QueueDepth int
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%d patches queued), retry after %s", e.QueueDepth, e.RetryAfter)
}

// ErrClosed is returned by Segment after Close has begun draining.
var ErrClosed = fmt.Errorf("serve: server closed")

// task is one sliding-window patch of one request, waiting to join a
// micro-batch. The patch itself is not materialized until batch assembly:
// the replica worker copies the window region straight from the request's
// volume into the batch tensor.
type task struct {
	req *request
	win int // index into the request's window list
	enq time.Time
}

// request tracks one Segment call across its patches.
type request struct {
	x    *tensor.Tensor // [C, D, H, W] input volume, read-only until done
	wins []patch.Window
	left atomic.Int64 // windows not yet predicted
	done chan struct{}

	// preds holds every window's prediction, window i's [outC, D, H, W] at
	// offset i·outC·D·H·W, so Segment blends them in scan order whatever
	// order they completed in. The replica that finishes the request's
	// first window allocates it: the model's output channel count is not
	// known before.
	alloc sync.Once
	preds []float32
	outC  int
}

// microbatch is a set of same-extent tasks headed for one replica.
type microbatch struct {
	tasks  []*task
	formed time.Time
}

// replica is one model instance and the batch buffer its micro-batches are
// assembled in. It takes its next micro-batch from the server's shared
// channel whenever it is idle.
type replica struct {
	model Model
	batch tensor.Owned
}

// Server is the micro-batching inference server. Create with New, feed with
// Segment from any number of goroutines, and stop with Close.
type Server struct {
	cfg     Config
	factory func() (Model, error)

	queue    chan *task
	enqMu    sync.Mutex       // keeps each request's windows contiguous in queue
	batches  chan *microbatch // unbuffered: the first idle replica takes each batch
	replicas []*replica
	running  sync.WaitGroup // replica workers; they exit once the batcher closes batches

	pending  atomic.Int64 // outstanding patches: queued + in compute
	inflight sync.WaitGroup
	closed   atomic.Bool

	// reloadMu serializes model hot-swaps against serving: Segment holds it
	// shared for a request's whole patch lifetime, SwapModel exclusively —
	// so a swap waits for in-flight requests to drain and every response is
	// computed under exactly one model generation (no torn swaps across the
	// micro-batches of one request). Replica workers only ever compute
	// patches of requests holding the read lock, so they need no lock of
	// their own.
	reloadMu sync.RWMutex

	m *metrics
}

// New builds a server with cfg.Replicas model instances from factory. Each
// replica gets an equal ShareN slice of cfg.Workers. The models start with
// the factory's (typically random) weights; call Reload to load a trained
// checkpoint.
func New(cfg Config, factory func() (Model, error)) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		factory: factory,
		queue:   make(chan *task, cfg.MaxQueue),
		batches: make(chan *microbatch),
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.m = newMetrics(reg, &s.pending, cfg.Replicas)
	shares := parallel.ShareN(cfg.Workers, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		m, err := factory()
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		m.SetWorkers(shares[i])
		r := &replica{model: m}
		s.replicas = append(s.replicas, r)
		s.running.Add(1)
		go s.runReplica(r)
	}
	go s.batcher()
	return s, nil
}

// Reload atomically hot-swaps every replica onto the checkpoint at path.
// The checkpoint is first loaded and validated against a staging model; on
// success the staging weights are promoted through SwapModel. On error the
// serving weights are untouched.
func (s *Server) Reload(path string) error {
	staging, err := s.factory()
	if err != nil {
		return fmt.Errorf("serve: reload staging model: %w", err)
	}
	if _, err := ckpt.LoadFile(path, staging); err != nil {
		return err
	}
	return s.SwapModel(staging)
}

// SwapModel atomically hot-swaps every replica onto src's weights — the
// in-memory promotion path: an online fine-tuning loop hands its shadow
// model straight over, skipping Reload's save-to-disk/load round-trip. The
// swap waits for in-flight requests to drain and blocks new ones until the
// copy finishes, so every response reflects exactly one model generation.
// src is validated against the replicas (parameter names and shapes) before
// any weight moves; on error the serving weights are untouched. The caller
// must not mutate src until SwapModel returns.
func (s *Server) SwapModel(src Model) error {
	dst := s.replicas[0].model.Params()
	ps := src.Params()
	if len(ps) != len(dst) {
		return fmt.Errorf("serve: swap model has %d parameters, replicas have %d", len(ps), len(dst))
	}
	for i, p := range ps {
		if p.Name != dst[i].Name {
			return fmt.Errorf("serve: swap parameter %d is %q, replicas have %q", i, p.Name, dst[i].Name)
		}
		if !p.Value.SameShape(dst[i].Value) {
			return fmt.Errorf("serve: swap parameter %q shape %v, replicas have %v",
				p.Name, p.Value.Shape(), dst[i].Value.Shape())
		}
	}
	srcAux := auxOf(src)

	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	for _, r := range s.replicas {
		for i, p := range r.model.Params() {
			p.Value.CopyFrom(ps[i].Value)
		}
		for name, dstState := range auxOf(r.model) {
			copy(dstState, srcAux[name])
		}
	}
	s.m.reloads.Inc()
	return nil
}

func auxOf(m Model) map[string][]float64 {
	if a, ok := m.(nn.AuxStater); ok {
		return a.AuxState()
	}
	return nil
}

// Segment runs one segmentation request: the volume x ([C, D, H, W]) is
// decomposed into sliding-window patches, batched with whatever else is in
// flight, and blended back into the full-volume probability map
// ([outC, D, H, W]). The caller must not mutate x until Segment returns.
// Safe for concurrent use; blocks until the result is ready, or fails fast
// with *OverloadedError under backpressure.
func (s *Server) Segment(x *tensor.Tensor) (*tensor.Tensor, error) {
	t0 := time.Now()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	sh := x.Shape()
	if len(sh) != 4 {
		return nil, fmt.Errorf("serve: Segment expects [C, D, H, W], got %v", sh)
	}
	if s.cfg.InChannels > 0 && sh[0] != s.cfg.InChannels {
		return nil, fmt.Errorf("serve: volume has %d channels, model expects %d", sh[0], s.cfg.InChannels)
	}
	d, h, w := sh[1], sh[2], sh[3]
	// Bound the patches axis by axis before listing them: a shape no buffer
	// could hold may still name more windows than memory does.
	need := 1
	for _, k := range s.cfg.Window.Counts(d, h, w) {
		if k > s.cfg.MaxQueue/need {
			return nil, fmt.Errorf("serve: request needs more than %d patches, the queue capacity", s.cfg.MaxQueue)
		}
		need *= k
	}
	wins := s.cfg.Window.Windows(d, h, w)
	if dv := s.cfg.ExtentDivisor; dv > 0 {
		e := wins[0]
		if e.D%dv != 0 || e.H%dv != 0 || e.W%dv != 0 {
			return nil, fmt.Errorf("serve: window extent %dx%dx%d not divisible by the model's minimum volume %d",
				e.D, e.H, e.W, dv)
		}
	}

	// Hold the swap lock shared for the request's whole patch lifetime: a
	// concurrent SwapModel waits for this request to finish, so all of its
	// micro-batches — however they interleave with other traffic — compute
	// under one model generation.
	s.reloadMu.RLock()

	// Admission: reserve queue slots or reject with a retry estimate.
	if depth := s.pending.Add(int64(len(wins))); depth > int64(s.cfg.MaxQueue) {
		s.pending.Add(-int64(len(wins)))
		s.reloadMu.RUnlock()
		s.m.rejected.Inc()
		per := time.Duration(s.m.ewmaPatchNs.Load())
		if per == 0 {
			per = 10 * time.Millisecond
		}
		return nil, &OverloadedError{
			QueueDepth: int(depth) - len(wins),
			RetryAfter: time.Duration(int(per) * (int(depth) - len(wins)) / len(s.replicas)),
		}
	}

	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closed.Load() {
		// Lost the race with Close; give the slots back.
		s.pending.Add(-int64(len(wins)))
		s.reloadMu.RUnlock()
		return nil, ErrClosed
	}
	s.m.requests.Inc()

	req := &request{x: x, wins: wins, done: make(chan struct{})}
	req.left.Store(int64(len(wins)))
	// The request's windows enter the queue as one contiguous run, so two
	// concurrent requests fill whole batches of their own instead of
	// sharing two. Admission reserved the slots, so no send blocks.
	now := time.Now()
	s.enqMu.Lock()
	for i := range wins {
		s.queue <- &task{req: req, win: i, enq: now}
	}
	s.enqMu.Unlock()
	<-req.done
	// Every patch has computed; blending only reads predictions, so the
	// swap lock can release before it.
	s.reloadMu.RUnlock()

	tBlend := time.Now()
	out, err := s.cfg.Window.BlendPredictions(wins, req.preds, req.outC, d, h, w)
	if err != nil {
		return nil, err
	}
	s.m.blend.ObserveDuration(time.Since(tBlend))
	s.m.total.ObserveDuration(time.Since(t0))
	return out, nil
}

// batcher coalesces queued patches into micro-batches: up to MaxBatch
// same-extent tasks, waiting at most MaxLinger after the first, each handed
// to whichever replica is idle.
func (s *Server) batcher() {
	defer close(s.batches)
	// One linger timer for every batch: since Go 1.23, Stop and Reset leave
	// no stale fire in its channel.
	linger := time.NewTimer(s.cfg.MaxLinger)
	linger.Stop()
	var carry *task // first task of the next batch when extents mismatch
	for {
		first := carry
		carry = nil
		if first == nil {
			var ok bool
			first, ok = <-s.queue
			if !ok {
				return
			}
		}
		batch := []*task{first}
		ext := first.req.wins[first.win]
		linger.Reset(s.cfg.MaxLinger)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case t, ok := <-s.queue:
				if !ok {
					break collect
				}
				// Patches of different window extents (requests with
				// differently-clamped volumes) or channel counts cannot
				// share a batch tensor; flush the current batch and start
				// the next from t.
				e := t.req.wins[t.win]
				if e.D != ext.D || e.H != ext.H || e.W != ext.W ||
					t.req.x.Shape()[0] != first.req.x.Shape()[0] {
					carry = t
					break collect
				}
				batch = append(batch, t)
			case <-linger.C:
				break collect
			}
		}
		linger.Stop()
		formed := time.Now()
		s.m.batches.Inc()
		s.m.fillSum.Add(uint64(len(batch)))
		for _, t := range batch {
			s.m.queue.ObserveDuration(formed.Sub(t.enq))
		}
		s.batches <- &microbatch{tasks: batch, formed: formed}
	}
}

// runReplica assembles each micro-batch into the replica's batch buffer, runs
// the no-grad forward, and copies each sample's prediction into its
// request's prediction buffer.
func (s *Server) runReplica(r *replica) {
	defer s.running.Done()
	for mb := range s.batches {
		s.m.busy.Inc()
		s.m.batch.ObserveDuration(time.Since(mb.formed))

		ext := mb.tasks[0].req.wins[mb.tasks[0].win]
		c := mb.tasks[0].req.x.Shape()[0]
		b := len(mb.tasks)
		pvol := ext.D * ext.H * ext.W
		batch := r.batch.Shaped(b, c, ext.D, ext.H, ext.W)
		bd := batch.Data()
		for i, t := range mb.tasks {
			wn := t.req.wins[t.win]
			xd := t.req.x.Data()
			xs := t.req.x.Shape()
			vd, vh, vw := xs[1], xs[2], xs[3]
			for ci := 0; ci < c; ci++ {
				for z := 0; z < wn.D; z++ {
					for y := 0; y < wn.H; y++ {
						src := ((ci*vd+wn.Z+z)*vh+wn.Y+y)*vw + wn.X
						dst := ((i*c+ci)*ext.D+z)*ext.H*ext.W + y*ext.W
						copy(bd[dst:dst+wn.W], xd[src:src+wn.W])
					}
				}
			}
		}

		t0 := time.Now()
		out := r.model.Infer(batch)
		compute := time.Since(t0)
		s.m.compute.ObserveDuration(compute)
		s.m.observePatchCompute(compute, b)

		outC := out.Shape()[1]
		n := outC * pvol
		od := out.Data()
		for i, t := range mb.tasks {
			req := t.req
			req.alloc.Do(func() {
				req.outC = outC
				req.preds = make([]float32, len(req.wins)*n)
			})
			copy(req.preds[t.win*n:(t.win+1)*n], od[i*n:(i+1)*n])
			s.m.patches.Inc()
			s.pending.Add(-1)
			if req.left.Add(-1) == 0 {
				close(req.done)
			}
		}
		s.m.busy.Dec()
	}
}

// Stats returns a point-in-time snapshot of counters, queue depth and
// per-stage latency distributions. The read path is lock-free: it loads
// the same atomics the hot paths store, so polling Stats (or scraping
// /metrics, which reads the identical registry state) never blocks the
// batcher or a replica worker.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:   s.m.requests.Value(),
		Patches:    s.m.patches.Value(),
		Batches:    s.m.batches.Value(),
		Rejected:   s.m.rejected.Value(),
		Reloads:    s.m.reloads.Value(),
		QueueDepth: s.pending.Load(),
		Queue:      latencyStats(s.m.queue),
		Batch:      latencyStats(s.m.batch),
		Compute:    latencyStats(s.m.compute),
		Blend:      latencyStats(s.m.blend),
		Total:      latencyStats(s.m.total),
	}
	if st.Batches > 0 {
		st.AvgBatchFill = float64(s.m.fillSum.Value()) / float64(st.Batches)
	}
	return st
}

// Close gracefully drains the server: new requests are rejected with
// ErrClosed, in-flight requests complete, then the batcher and replica
// workers shut down. Safe to call more than once.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.inflight.Wait()
		close(s.queue)
	}
	s.running.Wait()
}
