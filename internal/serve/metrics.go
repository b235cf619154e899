package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Latency histograms: fixed geometric buckets from 1µs to ~100s, cheap
// enough to sit on the per-patch hot path. Quantiles are read from the
// bucket boundaries, accurate to the ~26% bucket ratio — plenty for
// p50/p99 serving dashboards. The histograms live in a telemetry.Registry
// (Config.Telemetry, or a private one), so the same atomics back both the
// /v1/stats JSON snapshot and the Prometheus exposition: the two views
// cannot disagree, and neither read path blocks an observation.

const histBuckets = 80

// stageNames are the per-stage latency histogram children, in pipeline
// order.
var stageNames = []string{"queue", "batch", "compute", "blend", "total"}

// metrics aggregates the server's counters and per-stage histograms as
// handles into a telemetry registry. Every hot-path update is a single
// atomic operation.
type metrics struct {
	requests *telemetry.Counter // admitted segmentation requests
	patches  *telemetry.Counter // window patches run through a model
	batches  *telemetry.Counter // micro-batches dispatched
	rejected *telemetry.Counter // requests turned away by admission control
	reloads  *telemetry.Counter // checkpoint hot-swaps
	fillSum  *telemetry.Counter // sum of micro-batch sizes, for the average fill

	queue   *telemetry.Histogram // patch enqueue -> micro-batch formed
	batch   *telemetry.Histogram // micro-batch formed -> compute start (wait for an idle replica)
	compute *telemetry.Histogram // model forward per micro-batch
	blend   *telemetry.Histogram // per-request scatter + overlap blending
	total   *telemetry.Histogram // Segment entry -> result ready

	busy *telemetry.Gauge // replicas currently running a micro-batch

	// ewmaPatchNs tracks smoothed per-patch compute time for retry-after
	// estimates (stored as nanoseconds).
	ewmaPatchNs atomic.Uint64
}

// newMetrics registers the serving metrics in reg. pending is sampled for
// the queue-depth gauge; replicas scales the utilization gauge.
func newMetrics(reg *telemetry.Registry, pending *atomic.Int64, replicas int) *metrics {
	m := &metrics{
		requests: reg.Counter("serve_requests_total", "admitted segmentation requests"),
		patches:  reg.Counter("serve_patches_total", "window patches run through a model"),
		batches:  reg.Counter("serve_batches_total", "micro-batches dispatched"),
		rejected: reg.Counter("serve_rejected_total", "requests rejected by admission control"),
		reloads:  reg.Counter("serve_reloads_total", "checkpoint hot-swaps"),
		fillSum:  reg.Counter("serve_batch_fill_patches_total", "sum of micro-batch sizes"),
		busy:     reg.Gauge("serve_replicas_busy", "replicas currently running a micro-batch"),
	}
	stages := reg.HistogramVec("serve_stage_latency_ns",
		"per-stage serving latency in nanoseconds",
		telemetry.GeometricDurationBounds(time.Microsecond, 100*time.Second, histBuckets),
		"stage", stageNames...)
	m.queue = stages.With("queue")
	m.batch = stages.With("batch")
	m.compute = stages.With("compute")
	m.blend = stages.With("blend")
	m.total = stages.With("total")
	reg.GaugeFunc("serve_queue_depth", "outstanding patches (queued or in compute)",
		func() float64 { return float64(pending.Load()) })
	reg.GaugeFunc("serve_replica_utilization", "fraction of replicas running a micro-batch",
		func() float64 { return m.busy.Value() / float64(replicas) })
	reg.GaugeFunc("serve_patch_compute_ewma_ns", "smoothed per-patch compute time",
		func() float64 { return float64(m.ewmaPatchNs.Load()) })
	return m
}

func (m *metrics) observePatchCompute(batchDur time.Duration, batchSize int) {
	if batchSize <= 0 {
		return
	}
	per := uint64(batchDur.Nanoseconds()) / uint64(batchSize)
	for {
		old := m.ewmaPatchNs.Load()
		var next uint64
		if old == 0 {
			next = per
		} else {
			next = old - old/8 + per/8
		}
		if m.ewmaPatchNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// LatencyStats is a read-only histogram summary.
type LatencyStats struct {
	Count         uint64
	Mean          time.Duration
	P50, P90, P99 time.Duration
	Max           time.Duration
}

// latencyStats summarizes one stage histogram. The snapshot is lock-free —
// it loads the same atomics the observers store — so a stats poller never
// stalls the batcher or a replica worker.
func latencyStats(h *telemetry.Histogram) LatencyStats {
	s := h.Snapshot()
	st := LatencyStats{Count: s.Count, Max: time.Duration(s.Max)}
	if s.Count == 0 {
		return st
	}
	st.Mean = time.Duration(s.Sum) / time.Duration(s.Count)
	st.P50 = time.Duration(s.Quantile(0.50))
	st.P90 = time.Duration(s.Quantile(0.90))
	st.P99 = time.Duration(s.Quantile(0.99))
	return st
}

// Stats is a point-in-time snapshot of the server's counters, queue state
// and per-stage latency distributions.
type Stats struct {
	Requests uint64 // admitted segmentation requests
	Patches  uint64 // window patches computed
	Batches  uint64 // micro-batches dispatched
	Rejected uint64 // requests rejected by admission control
	Reloads  uint64 // checkpoint hot-swaps

	QueueDepth   int64   // outstanding patches (queued or in compute)
	AvgBatchFill float64 // mean patches per micro-batch

	Queue   LatencyStats // patch wait: enqueue -> micro-batch formed
	Batch   LatencyStats // wait for an idle replica: batch formed -> compute start
	Compute LatencyStats // model forward per micro-batch
	Blend   LatencyStats // per-request scatter + blending
	Total   LatencyStats // end-to-end request latency
}
