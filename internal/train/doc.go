// Package train is the unified training-orchestration layer: one canonical
// epoch/step loop (Session) driving a pluggable distribution Strategy and an
// ordered Callback chain, with full session-state checkpointing.
//
// Session is the one training entry point: a core campaign trial, a dist
// worker and the online controller all build a Session (raysgd
// only selects its strategy and batch), so callbacks, checkpointing and
// the epoch order exist once:
//
//   - Strategy abstracts the per-step optimization update. The step
//     exists once, as mirrored.Rank: mirrored.Trainer (synchronous data
//     parallelism: R ranks, flat or hierarchical all-reduce over in-process
//     links) and a dist worker (one rank over TCP) run it, and Single — the
//     paper's sequential case — is the width-1 rank, whose step skips the
//     reduction. raysgd always builds a mirrored.Trainer, one replica per
//     GPU; the paper's three cases (§III-B.2) choose only its ring
//     layout.
//   - Callback is the ordered hook chain (OnTrainBegin, OnEpochBegin,
//     OnStepBegin/End, OnEvalBegin, OnEpochEnd, OnCheckpoint, OnTrainEnd).
//     Built-ins cover periodic and step-granular checkpointing, per-epoch reporting (the Ray.Tune protocol) and
//     telemetry.
//   - The epoch order is a seeded permutation: each epoch shuffles the
//     training set by Seed+epoch (tf.data's shuffle with the whole set in
//     its buffer), cuts it into full batches and drops the remainder.
//     Config.Flip mirrors each sample along each spatial axis with
//     probability ½, from a stream seeded by the epoch and sample index.
//   - Checkpoints persist the complete session state — model parameters,
//     batch-norm running statistics, optimizer moments and step counter,
//     and the epoch/step cursor — bit-exactly, so a session resumed from
//     epoch k continues parameter-for-parameter identically to one that
//     never stopped (TestResumeBitIdentical). The order and the flips are
//     seeded per epoch, so the epoch/step cursor is the only RNG state a
//     checkpoint needs.
//
// The experiment layer builds on the same mechanism: tune.Runner commits
// terminal trial outcomes and its scheduler's state to one campaign.json
// under a campaign directory, and core resumes in-flight trials from the
// session checkpoints in their trial-NNNN directories, so an interrupted
// hyper-parameter search — under either distribution strategy — picks up
// where it stopped. The online controller writes its session checkpoint
// inside its one state file, after the replay buffer's sample stream.
package train
