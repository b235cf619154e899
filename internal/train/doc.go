// Package train is the unified training-orchestration layer: one canonical
// epoch/step loop (Session) driving a pluggable distribution Strategy and an
// ordered Callback chain, with full session-state checkpointing.
//
// Session is the one training entry point: a core campaign trial, a dist
// worker, the online controller and the examples all build a Session (raysgd
// only selects its strategy and batch), so callbacks, checkpointing and
// memory-pressure hooks exist once:
//
//   - Strategy abstracts the per-step optimization update. The step
//     exists once, as mirrored.Rank: mirrored.Trainer (synchronous data
//     parallelism: R ranks, flat or hierarchical all-reduce over in-process
//     links) and a dist worker (one rank over TCP) run it, and Single — the
//     paper's sequential case — is the width-1 rank, whose step skips the
//     reduction. raysgd always builds a mirrored.Trainer, one replica per
//     GPU; the paper's three-case mode selection (§III-B.2) chooses only
//     its ring layout.
//   - Callback is the ordered hook chain (OnTrainBegin, OnEpochBegin,
//     OnStepBegin/End, OnEvalBegin, OnEpochEnd, OnCheckpoint, OnTrainEnd).
//     Built-ins cover metric history, learning-rate schedules, early
//     stopping, periodic checkpointing, per-epoch reporting (the Ray.Tune
//     protocol) and cache release between the train and eval phases.
//   - Checkpoints persist the complete session state — model parameters,
//     batch-norm running statistics, optimizer moments and step counter,
//     and the epoch/step cursor — bit-exactly, so a session resumed from
//     epoch k continues parameter-for-parameter identically to one that
//     never stopped (TestResumeBitIdentical). The input pipeline is seeded
//     per epoch (shuffle by Seed+epoch, augmentation by epoch and sample
//     index), so the epoch cursor is the only RNG state a checkpoint needs.
//
// The experiment layer builds on the same mechanism: tune.Runner records
// terminal trial outcomes under a campaign directory and core resumes
// in-flight trials from their session checkpoints, so an interrupted
// hyper-parameter search — under either distribution strategy — picks up
// where it stopped.
package train
