package mirrored

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/allreduce"
	"repro/internal/loss"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// Rank is one member of the synchronous data-parallel step: it owns one
// model replica, trains on its rank's shard of every global batch and
// averages gradients with the other members over its topology. Over
// allreduce.LocalTopologies the members are a Trainer's replicas; over a
// TCP topology each is a process of the dist layer. The flatten order, the
// ring reduction order and the rank-ordered loss mean depend on the layout
// alone, so W processes produce bit-for-bit the parameters of a W-replica
// Trainer on the same inputs.
type Rank struct {
	topo  *allreduce.Topology
	model *unet.UNet
	loss  loss.Loss
	opt   optim.Optimizer

	// bucketBytes > 0 enables the bucketed, comms/compute-overlapped
	// reduction path: backward streams layer-gradient groups into buckets of
	// at least this many raw float32 bytes, and a reducer goroutine
	// all-reduces each bucket while backward keeps computing. 0 keeps the
	// monolithic flatten → one all-reduce path.
	bucketBytes int

	// flat is the all-reduce's gradient buffer, laid out at the first step
	// and grown to the largest reduction: the whole gradient on the
	// monolithic path, the largest bucket on the bucketed one, whose
	// reducer handles one bucket at a time.
	flat []float32

	phaseObs func(phase string, d time.Duration) // nil = no phase timing
}

// SetPhaseObserver implements train.PhaseReporter: fn receives this rank's
// exact forward/backward/allreduce/optim durations for every subsequent
// step (plus comm_wait on the overlapped path; no allreduce at width 1).
// The allreduce phase includes waiting for the slowest member. Not
// synchronized with Step — install it before training starts.
func (s *Rank) SetPhaseObserver(fn func(phase string, d time.Duration)) { s.phaseObs = fn }

// SetBucketBytes switches Step to the bucketed, overlapped reduction path
// (see the bucketBytes field); 0 restores the monolithic path. Bucketing
// changes the all-reduce chunk boundaries and therefore the floating-point
// accumulation grouping: results remain deterministic and identical across
// ranks, but are no longer bit-identical to the monolithic path. Install
// before training starts.
func (s *Rank) SetBucketBytes(n int) { s.bucketBytes = n }

// NewRank builds the rank-local replica over an established topology. The
// learning rate follows the paper's scaling rule: BaseLR × width when
// scaleLR is set.
func NewRank(topo *allreduce.Topology, net unet.Config, lossName, optName string, baseLR float64, scaleLR bool) (*Rank, error) {
	if topo == nil {
		return nil, fmt.Errorf("mirrored: nil topology")
	}
	model, err := unet.New(net)
	if err != nil {
		return nil, err
	}
	l, err := loss.ByName(lossName)
	if err != nil {
		return nil, err
	}
	lr := baseLR
	if scaleLR {
		lr = optim.ScaleLRForReplicas(baseLR, topo.Width())
	}
	opt, err := optim.ByName(optName, lr)
	if err != nil {
		return nil, err
	}
	return &Rank{topo: topo, model: model, loss: l, opt: opt}, nil
}

// Step implements train.Strategy: forward/backward on this rank's shard,
// gradient average over the topology, identical optimizer update
// everywhere. Every member must call it with the same global batch. The
// returned loss is the rank-ordered mean over all shards — the same value
// on every rank. At width 1 — the paper's sequential case, and every
// experiment-parallel trial — the average of one buffer is the identity,
// so the step skips the flatten/all-reduce/unflatten round trip and
// reports no allreduce phase.
//
// The optimizer runs on the network's worker budget. A width-1 step whose
// budget is above one is a parallel.BeginStep scope, so the helpers stay
// hot across its serial stretches. At a budget of one — experiment-parallel
// trials, replicas sharing two cores — there are no helpers to keep hot,
// and a wider step opens none either: it waits on its peers, and dist
// workers, one process per rank, each default to every core, so hot
// helpers would take the cores the peers compute on.
func (s *Rank) Step(inputs, masks *tensor.Tensor) (float64, error) {
	n := inputs.Dim(0)
	w := s.topo.Width()
	if n%w != 0 {
		return 0, fmt.Errorf("mirrored: global batch %d not divisible by %d ranks", n, w)
	}
	if masks.Dim(0) != n {
		return 0, fmt.Errorf("mirrored: masks batch %d does not match inputs %d", masks.Dim(0), n)
	}
	workers := parallel.Resolve(s.model.Cfg.Workers)
	if workers > 1 && w == 1 {
		parallel.BeginStep()
		defer parallel.EndStep()
	}
	s.opt.SetWorkers(workers)
	shard := n / w
	rank := s.topo.Rank()
	in := inputs.Slice(rank*shard, (rank+1)*shard)
	mask := masks.Slice(rank*shard, (rank+1)*shard)

	s.model.ZeroGrads()
	t0 := time.Now()
	pred := s.model.Forward(in)
	l, grad := s.loss.Eval(pred, mask)
	t1 := time.Now()

	if s.bucketBytes > 0 && w > 1 {
		return s.finishOverlapped(l, grad, t0, t1)
	}

	s.model.Backward(grad)
	t2 := time.Now()
	t3 := t2
	if w > 1 {
		s.flat = flattenGrads(s.flat, s.model.Params())
		if err := s.topo.AllReduceAverage(s.flat); err != nil {
			return 0, err
		}
		t3 = time.Now()
		unflattenGrads(s.model.Params(), s.flat)
	}
	s.opt.Step(s.model.Params())
	if obs := s.phaseObs; obs != nil {
		obs("forward", t1.Sub(t0))
		obs("backward", t2.Sub(t1))
		if w > 1 {
			obs("allreduce", t3.Sub(t2))
		}
		obs("optim", time.Since(t3))
	}

	return s.gatherLoss(l)
}

// finishOverlapped completes a step on the bucketed path: backward streams
// layer groups through the grad sink; whenever the pending group run reaches
// bucketBytes of raw gradients it becomes one bucket, and a reducer
// goroutine all-reduces buckets in emission order while backward keeps
// computing the shallower layers. The bucket partition is a deterministic
// function of the architecture and bucketBytes, so every rank reduces
// identical buckets in identical order — cross-rank bit-identity holds
// exactly as on the monolithic path.
//
// The reducer may only touch gradients of groups the sink has already
// emitted (UNet.Backward guarantees it never revisits those), so flatten /
// all-reduce / unflatten run concurrently with backward without overlap on
// any tensor. Phase accounting: "allreduce" is the reducer's total
// collective time (overlapped, so phases no longer sum to step wall time);
// "comm_wait" is the stall between backward finishing and the last bucket
// landing — the exposed, non-overlapped communication cost.
func (s *Rank) finishOverlapped(l float64, grad *tensor.Tensor, t0, t1 time.Time) (float64, error) {
	params := s.model.Params()
	total := 0
	for _, p := range params {
		total += p.Grad.Size()
	}

	buckets := make(chan []*nn.Param, len(params)) // never blocks the sink
	errCh := make(chan error, 1)
	var commTime time.Duration // written by the reducer, read after errCh
	go func() {
		for ps := range buckets {
			s.flat = flattenGrads(s.flat, ps)
			st := time.Now()
			if err := s.topo.AllReduceAverage(s.flat); err != nil {
				errCh <- err
				for range buckets { // drain so the sink never blocks
				}
				return
			}
			commTime += time.Since(st)
			unflattenGrads(ps, s.flat)
		}
		errCh <- nil
	}()

	var pending []*nn.Param
	pendingBytes, emitted := 0, 0
	s.model.SetGradSink(func(group []*nn.Param) {
		pending = append(pending, group...)
		for _, p := range group {
			pendingBytes += 4 * p.Grad.Size()
			emitted += p.Grad.Size()
		}
		if pendingBytes >= s.bucketBytes {
			buckets <- pending
			pending, pendingBytes = nil, 0
		}
	})
	s.model.Backward(grad)
	s.model.SetGradSink(nil)
	t2 := time.Now()
	if len(pending) > 0 {
		buckets <- pending
	}
	close(buckets)
	err := <-errCh
	t3 := time.Now()
	if err != nil {
		return 0, err
	}
	if emitted != total {
		return 0, fmt.Errorf("mirrored: grad sink emitted %d of %d gradient elements — bucketed reduction incomplete", emitted, total)
	}

	s.opt.Step(params)
	if obs := s.phaseObs; obs != nil {
		obs("forward", t1.Sub(t0))
		obs("backward", t2.Sub(t1))
		obs("allreduce", commTime)
		obs("comm_wait", t3.Sub(t2))
		obs("optim", time.Since(t3))
	}
	return s.gatherLoss(l)
}

// gatherLoss returns the rank-ordered mean loss over all shards — the same
// value on every rank.
func (s *Rank) gatherLoss(l float64) (float64, error) {
	losses, err := s.topo.GatherAll64(l)
	if err != nil {
		return 0, err
	}
	var mean float64
	for _, v := range losses {
		mean += v
	}
	return mean / float64(s.topo.Width()), nil
}

// Evaluate implements train.Strategy. Every rank evaluates the full batch
// locally: the replicas are bitwise identical, so local evaluation yields
// the same score everywhere without an eval-phase collective — the wire
// stays idle (and cannot fault) between epochs.
func (s *Rank) Evaluate(inputs, masks *tensor.Tensor) float64 {
	return metrics.DiceScore(s.model.Infer(inputs), masks)
}

// Model implements train.Strategy.
func (s *Rank) Model() *unet.UNet { return s.model }

// Replicas implements train.Strategy: the data-parallel width is the
// membership size.
func (s *Rank) Replicas() int { return s.topo.Width() }

// LR implements train.Strategy.
func (s *Rank) LR() float64 { return s.opt.LR() }

// SetLR implements train.Strategy.
func (s *Rank) SetLR(lr float64) { s.opt.SetLR(lr) }

// ExportOptimState implements train.Strategy.
func (s *Rank) ExportOptimState() (map[string][]float64, error) {
	st, ok := s.opt.(optim.Stater)
	if !ok {
		return nil, fmt.Errorf("mirrored: optimizer %q does not support state export", s.opt.Name())
	}
	return st.ExportState(s.model.Params())
}

// ImportOptimState implements train.Strategy.
func (s *Rank) ImportOptimState(state map[string][]float64) error {
	st, ok := s.opt.(optim.Stater)
	if !ok {
		return fmt.Errorf("mirrored: optimizer %q does not support state import", s.opt.Name())
	}
	return st.ImportState(s.model.Params(), state)
}

// BroadcastParams implements train.Strategy as a no-op: the other replicas
// are other members, and synchronization happens by every rank loading the
// same checkpoint (or a Trainer copying rank 0 into its other ranks) rather
// than by a collective.
func (s *Rank) BroadcastParams() {}

// flattenGrads concatenates parameter gradients into buf, the unit of the
// all-reduce, and returns the filled buffer: buf itself when its capacity
// suffices, a new one of the exact size otherwise.
func flattenGrads(buf []float32, params []*nn.Param) []float32 {
	n := 0
	for _, p := range params {
		n += p.Grad.Size()
	}
	if cap(buf) < n {
		buf = make([]float32, 0, n)
	}
	out := buf[:0]
	for _, p := range params {
		out = append(out, p.Grad.Data()...)
	}
	return out
}

// unflattenGrads writes a flat buffer back into parameter gradients — the
// inverse of flattenGrads.
func unflattenGrads(params []*nn.Param, flat []float32) {
	off := 0
	for _, p := range params {
		g := p.Grad.Data()
		copy(g, flat[off:off+len(g)])
		off += len(g)
	}
}

// paramHash64 hashes the model parameters bit-for-bit. Auxiliary state
// (batch-norm running statistics) is deliberately excluded: it evolves with
// each rank's own shard, so only the parameters are membership-wide
// invariants.
func paramHash64(m *unet.UNet) uint64 {
	h := fnv.New64a()
	var b4 [4]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
			h.Write(b4[:])
		}
	}
	return h.Sum64()
}

// ParamHash renders a model's parameter hash as the hex string exchanged in
// dist done messages and printed by the command layer — the quantity the
// kill-and-rejoin acceptance gate compares across runs.
func ParamHash(m *unet.UNet) string {
	return fmt.Sprintf("%016x", paramHash64(m))
}
