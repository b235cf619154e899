// Package telemetry is the process-wide observability layer: a
// concurrency-safe registry of named counters, gauges and fixed-bucket
// histograms with Prometheus text exposition, a structured JSONL
// trace-event stream, and a span-aggregation primitive for per-stage
// bottleneck reports. It is dependency-free (standard library
// only) and sits below every other internal package, so the training
// sessions, the serving tier, the all-reduce transport and the
// fault-tolerant coordinator all observe themselves through one mechanism
// — the instrumentation answer to the paper's own method, where the
// TensorBoard profiler (not intuition) located the data-loading
// bottleneck.
//
// # Metrics
//
// A Registry hands out typed collector handles at registration time;
// the hot path then works on the handle alone:
//
//	var steps = telemetry.Default().Counter("train_steps_total", "optimizer steps")
//	steps.Inc() // one atomic add, no locks, no allocation
//
// Counters are monotone uint64s, gauges are float64s, histograms have
// fixed bucket bounds chosen at registration. Labelled metrics use
// pre-registered label sets (CounterVec/GaugeVec/HistogramVec): every
// child is created up front, With resolves once at setup, and the hot
// path holds the child pointer — there is no per-observation map lookup
// and no way to explode cardinality at runtime. Func variants
// (CounterFunc/GaugeFunc) sample a callback at scrape time, for values
// another subsystem already maintains (queue depths, replica
// utilization).
//
// Reads never block writes: Value/Snapshot and the Prometheus handler
// load the same atomics the hot path stores, so a monitoring poller
// cannot add tail latency to the paths it watches.
//
// # Exposition
//
// Handler serves the registry in the Prometheus text format
// (text/plain; version=0.0.4) with deterministic ordering: families
// sorted by name, children by label value, buckets ascending. WriteText
// does the same to any io.Writer.
//
// # Tracing
//
// A Tracer appends one JSON object per line — typed span/event/step
// records with monotonic timestamps — through a buffered asynchronous
// writer: Emit hands the record to a channel and never blocks; when the
// writer stalls and the buffer fills, records are dropped and counted
// (Dropped), so tracing cannot slow a training step. All Tracer methods
// are nil-receiver safe, letting instrumentation run unconditionally.
//
// # Spans
//
// SpanGroup aggregates named spans into per-stage totals under one
// mutex+clock implementation; Stats lists the stages by descending total,
// so its first row is the bottleneck (examples/pipeline_offline prints that
// report), and a SpanGroup with an attached Tracer emits every ended span
// as a trace record too.
package telemetry
