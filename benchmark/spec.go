package main

// The benchmark's contract, mirrored by /BENCHMARK.json (TestSpecMatchesBenchmarkJSON
// keeps the two equal): which workloads exist, which end-to-end metrics every
// untraced run reports, and which per-layer metrics every traced run reports.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

const (
	wlTrainSingle        = "train_single"
	wlCampaignExperiment = "campaign_experiment"
	wlCampaignData       = "campaign_data"
	wlServeMultiWindow   = "serve_multi_window"
)

var workloads = []workloadSpec{
	{wlTrainSingle, "plain single-replica Session.Fit: all time in nn/gemm/unet with intra-op parallelism on; allreduce, mirrored, tune and serve are bypassed"},
	{wlCampaignExperiment, "the paper's experiment parallelism via core.Run: concurrent one-worker trials under tune; intra-op scaling and allreduce are bypassed"},
	{wlCampaignData, "the same campaign under data parallelism: each trial on a 2-replica mirrored trainer with a per-step all-reduce barrier; the tune runner is bypassed"},
	{wlServeMultiWindow, "closed loop of 2 clients on the micro-batching server: forward-only Infer, queue, batch, scatter; no backward, optimizer or all-reduce"},
}

// endToEnd is reported by every workload. One "op" is a training step
// (train_single), one core.Run campaign (campaign_*) or one Segment request
// (serve_multi_window); one "sample" is one 16³ 4-modality volume through the
// network (a training case, or an inference window).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by every traced run, whichever workload it names: the
// layers are shared, so a traced run probes all of them (see layers.go) and
// runs a short traced window of every workload.
var perLayer = []metricSpec{
	{"gemm.peak_gflops", "GFLOP/s", "higher", 0},
	{"gemm.conv_gflops", "GFLOP/s", "higher", 0},
	{"gemm.conv_frac_peak", "share", "higher", 0},
	{"gemm.scale_w2", "x", "higher", 0},

	{"nn.conv_k3_fwd_ms", "ms", "lower", 0},
	{"nn.conv_k3_bwd_ms", "ms", "lower", 0},
	{"nn.conv_k3_infer_ms", "ms", "lower", 0},
	{"nn.up_k2_fwd_ms", "ms", "lower", 0},
	{"nn.up_k2_bwd_ms", "ms", "lower", 0},
	{"nn.up_k2_infer_ms", "ms", "lower", 0},
	{"nn.head_k1_fwd_ms", "ms", "lower", 0},
	{"nn.head_k1_bwd_ms", "ms", "lower", 0},
	{"nn.head_k1_infer_ms", "ms", "lower", 0},
	{"nn.bn_fwd_ms", "ms", "lower", 0},
	{"nn.bn_bwd_ms", "ms", "lower", 0},
	{"nn.pool_fwd_ms", "ms", "lower", 0},
	{"nn.pool_bwd_ms", "ms", "lower", 0},
	{"nn.relu_fwd_ms", "ms", "lower", 0},
	{"nn.relu_bwd_ms", "ms", "lower", 0},
	{"nn.replay_scale_w2", "x", "higher", 0},

	{"unet.fwd_ms", "ms", "lower", 0},
	{"unet.bwd_ms", "ms", "lower", 0},
	{"unet.infer_ms", "ms", "lower", 0},
	{"unet.glue_share", "share", "lower", 0},
	{"unet.scale_w2", "x", "higher", 0},
	{"unet.infer_batch_gain", "x", "higher", 0},

	{"loss.dice_ms", "ms", "lower", 0},
	{"optim.adam_ms", "ms", "lower", 0},

	{"train.forward_ms", "ms", "lower", 0},
	{"train.backward_ms", "ms", "lower", 0},
	{"train.optim_ms", "ms", "lower", 0},
	{"train.unattributed_share", "share", "lower", 0},
	{"train.eval_ms", "ms", "lower", 0},
	{"train.loop_overhead_share", "share", "lower", 0},
	{"train.val_dice", "dice", "higher", 0},
	{"trace_overhead_share", "share", "lower", 0},

	{"tensor.scratch_gets_per_step", "count", "lower", 0},
	{"tensor.scratch_allocs_per_step", "count", "lower", 0},
	{"tensor.scratch_allocs_per_req", "count", "lower", 0},
	{"parallel.heap_allocs_per_step", "count", "lower", 0},

	{"allreduce.ring_mem_ms", "ms", "lower", 0},
	{"allreduce.tcp_none_ms", "ms", "lower", 0},
	{"allreduce.tcp_fp16_ms", "ms", "lower", 0},
	{"allreduce.tcp_int8_ms", "ms", "lower", 0},
	{"allreduce.wire_ratio_fp16", "share", "lower", 0},

	{"mirrored.step_ms", "ms", "lower", 0},
	{"mirrored.allreduce_ms", "ms", "lower", 0},
	{"mirrored.optim_ms", "ms", "lower", 0},
	{"mirrored.sync_overhead_share", "share", "lower", 0},
	{"mirrored.dp_efficiency", "share", "higher", 0},

	{"dist.step_ms_none", "ms", "lower", 0},
	{"dist.step_ms_fp16", "ms", "lower", 0},
	{"dist.comm_wait_share_fp16", "share", "lower", 0},
	{"dist.bytes_per_step_none", "B", "lower", 0},
	{"dist.bytes_per_step_fp16", "B", "lower", 0},
	{"dist.frames_per_step", "count", "lower", 0},
	{"dist.form_ms", "ms", "lower", 0},

	{"tune.trial_ms_p50", "ms", "lower", 0},
	{"tune.slot_idle_share", "share", "lower", 0},
	{"tune.best_dice", "dice", "higher", 0},
	{"core.prepare_ms", "ms", "lower", 0},

	{"serve.queue_ms", "ms", "lower", 0},
	{"serve.dispatch_ms", "ms", "lower", 0},
	{"serve.compute_ms", "ms", "lower", 0},
	{"serve.blend_ms", "ms", "lower", 0},
	{"serve.batch_fill", "count", "higher", 0},
	{"serve.patches_per_s", "1/s", "higher", 0},
	{"serve.rejected_share", "share", "lower", 0},
	{"serve.single_window_ms_p50", "ms", "lower", 0},
	{"patch.infer_overlap_ms", "ms", "lower", 0},

	{"ckpt.session_save_ms", "ms", "lower", 0},
	{"ckpt.session_load_ms", "ms", "lower", 0},
	{"ckpt.session_bytes", "B", "lower", 0},
	{"msd.generate_ms_per_case", "ms", "lower", 0},
	{"volume.preprocess_ms_per_case", "ms", "lower", 0},
}

// value is one reported metric, in the shape the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last stdout line of one run.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what a workload or probe hands back: metric values by name,
// verified-operation counts, and notes (hashes, dice, sample counts) that go
// to the human-readable output and result.json but not to the driver line.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
}

// merge folds o2's metrics, notes and counts into o.
func (o *outcome) merge(o2 *outcome) {
	o.attempted += o2.attempted
	o.failed += o2.failed
	for k, v := range o2.metrics {
		o.metrics[k] = v
	}
	for k, v := range o2.notes {
		o.notes[k] = v
	}
}

// check counts one verified operation; a false ok is a failed operation and
// is logged under the given description.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		logf("FAILED: "+format, args...)
	}
}
