package allreduce

import (
	"time"

	"repro/internal/telemetry"
)

// Wire metrics, registered once on the process-wide registry: every framed
// byte in and out of this process's ring links, frame counts, dial retries
// during membership formation, and per-collective durations. The hot-path
// cost is one or two atomic adds per frame — negligible next to a socket
// write — and a worker's -metrics-addr listener exposes the lot.
var (
	wireTx = telemetry.Default().Counter("allreduce_tx_bytes_total",
		"bytes sent over ring links (frame headers included)")
	wireRx = telemetry.Default().Counter("allreduce_rx_bytes_total",
		"bytes received over ring links (frame headers included)")
	wireTxFrames = telemetry.Default().Counter("allreduce_tx_frames_total",
		"frames sent over ring links")
	wireRxFrames = telemetry.Default().Counter("allreduce_rx_frames_total",
		"frames received over ring links")
	dialRetries = telemetry.Default().Counter("allreduce_dial_retries_total",
		"failed dial attempts retried during topology formation")

	opDurations = telemetry.Default().HistogramVec("allreduce_op_ns",
		"collective operation duration in nanoseconds",
		telemetry.GeometricDurationBounds(10*time.Microsecond, 1000*time.Second, 60),
		"op", "allreduce", "gather")
	opAllReduce = opDurations.With("allreduce")
	opGather    = opDurations.With("gather")

	// Codec metrics: gradient chunk payload bytes after encoding (what the
	// wire actually carries) next to the float32 bytes they replace —
	// compression ratio is payloadBytes/rawBytes per codec label — plus
	// encode/decode time so the CPU cost of compression is visible against
	// the socket time it saves.
	payloadBytes = telemetry.Default().CounterVec("allreduce_payload_bytes_total",
		"gradient chunk payload bytes sent, after codec encoding", "codec",
		CodecNames()...)
	payloadRawBytes = telemetry.Default().CounterVec("allreduce_payload_raw_bytes_total",
		"float32 gradient bytes before codec encoding", "codec",
		CodecNames()...)
	codecEncodeNS = telemetry.Default().HistogramVec("allreduce_codec_encode_ns",
		"chunk encode duration in nanoseconds",
		telemetry.GeometricDurationBounds(time.Microsecond, 10*time.Second, 48),
		"codec", CodecNames()...)
	codecDecodeNS = telemetry.Default().HistogramVec("allreduce_codec_decode_ns",
		"chunk decode duration in nanoseconds",
		telemetry.GeometricDurationBounds(time.Microsecond, 10*time.Second, 48),
		"codec", CodecNames()...)
)

// codecMetrics caches one codec's counter and histogram children so the
// chunk hot path pays atomic adds, not label lookups.
type codecMetrics struct {
	payload, raw   *telemetry.Counter
	encode, decode *telemetry.Histogram
}

func codecMetricsFor(c Codec) *codecMetrics {
	return &codecMetrics{
		payload: payloadBytes.With(c.Name()),
		raw:     payloadRawBytes.With(c.Name()),
		encode:  codecEncodeNS.With(c.Name()),
		decode:  codecDecodeNS.With(c.Name()),
	}
}

// observeOp records one collective's duration; call as
// `defer observeOp(h, time.Now())` right after arming the op.
func observeOp(h *telemetry.Histogram, start time.Time) {
	h.ObserveDuration(time.Since(start))
}
