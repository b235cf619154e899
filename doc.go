// Package repro is a pure-Go reproduction of "Distributing Deep Learning
// Hyperparameter Tuning for 3D Medical Image Segmentation" (Berral et al.,
// IPDPS 2022, arXiv:2110.15884).
//
// The library lives under internal/: a float32 tensor engine with
// zero-copy views, owned buffers and call-scoped scratch workspaces, the
// fork-join worker pool, a cache-blocked register-tiled GEMM (an AVX2 assembly
// microkernel on amd64, a bit-identical portable one elsewhere) that reads
// its B operand through offset tables and the 3D CNN layers on top of it
// (tensor, parallel, gemm, nn — a convolution has one implementation, which
// never builds a patch matrix: the microkernel reads it in place from a
// zero-haloed copy of the activation, or packs its panels from there where
// volume rows are not a multiple of 4 wide and for the kernel gradient, the
// weights are packed once per call, the input gradient is a
// forward convolution with the flipped kernel, and backward-weights reduces
// per-sample partial products so its parallelism scales with the batch),
// the paper's 3D U-Net (unet — one fused convolution → batch-norm →
// ReLU block per body site, every activation and gradient in a buffer the
// network owns and every layer's scratch in one workspace it owns, so a
// training step allocates none), Dice losses and
// optimizers (loss, optim, metrics), the data path from NIfTI phantoms to
// TFRecords for the paper's one task, binarized whole-tumour segmentation
// (msd, nifti, volume, record, patch), the unified training-orchestration
// layer — one Session loop that trains on a seeded permutation of the
// samples, over pluggable strategies with an ordered callback chain and
// bit-exact checkpoint/resume (train, ckpt) — the
// distribution layer selecting and driving those strategies with resumable
// grid-search campaigns (allreduce, mirrored, raysgd, tune, cluster;
// both of the paper's strategies run on one tune runner as trials of width
// W or 1)
// — allreduce runs one ring and hierarchical reduction over any link,
// in-process channels or TCP between processes, mirrored writes the
// data-parallel step once as a Rank that a Trainer runs R of in-process
// and each dist worker runs one of over TCP, and dist adds the fault-tolerant
// coordinator/worker layer on top: elastic membership with heartbeats and
// generations, step-granular session checkpoints, and recovery that
// resumes survivors (or a rejoined worker) from the last checkpoint with
// bit-for-bit the uninterrupted run's final parameters — one analytic
// model of the paper's MareNostrum cluster regenerating its Table I and
// Figure 4 (experiments), deterministic network-fault injection for the
// TCP transport (netsim), the
// unified observability layer — a process-wide lock-free metrics registry
// with Prometheus text exposition, a never-blocking JSONL trace-event
// stream, and pprof mounting, instrumented through train/serve/allreduce/
// dist/tensor and surfaced by the binaries' /metrics, -trace and
// -metrics-addr flags (telemetry) — and the DistMIS facade (core).
//
// See README.md for a tour and PAPER.md for the source-paper summary.
// Executables live in cmd/. The walk-throughs are tests: ExampleRun
// (internal/core) and ExampleGenerateCase (internal/msd) are testable
// examples, and this package's integration tests train to the paper's Dice
// band and compare full-volume with patch training.
package repro
