// Package dist runs fault-tolerant multi-process data-parallel training: a
// coordinator holds the membership and drives generations of synchronous
// training; workers wire themselves into a TCP all-reduce ring
// (allreduce.FormTopology) and execute the shared training plan. The
// reduction order over the wire matches the in-process mirrored trainer
// bit-for-bit, and recovery goes through the session-checkpoint layer: when
// a worker dies, the survivors (plus a rejoiner or respawn) re-form the
// ring under a fresh generation, reload the last step-granular checkpoint
// and replay deterministically — so a run with a mid-training kill ends
// with exactly the parameters of an uninterrupted run.
package dist

import (
	"fmt"
	"time"

	"repro/internal/allreduce"
	"repro/internal/msd"
	"repro/internal/unet"
	"repro/internal/volume"
)

// TrainSpec is the complete, self-contained training plan the coordinator
// broadcasts at every generation start. Workers rebuild everything from it
// deterministically — dataset, network, optimizer, shuffle — so a worker
// that joins late (or rejoins after a kill) reconstructs the same state as
// one that was present from the beginning, modulo the checkpoint it loads.
type TrainSpec struct {
	// Dataset: the synthetic MSD phantoms, generated locally by every
	// worker from the same seed (no data distribution over the wire).
	Cases    int   `json:"cases"`
	Dim      int   `json:"dim"`
	DataSeed int64 `json:"dataSeed"`
	ValCases int   `json:"valCases"` // validation-split cap (0 = all)

	// Network.
	BaseFilters int   `json:"baseFilters"`
	NetSteps    int   `json:"netSteps"`
	Kernel      int   `json:"kernel"`
	UpKernel    int   `json:"upKernel"`
	NetSeed     int64 `json:"netSeed"`

	// Optimization.
	Loss        string  `json:"loss"`
	Optimizer   string  `json:"optimizer"`
	BaseLR      float64 `json:"baseLR"`
	ScaleLR     bool    `json:"scaleLR"`
	Epochs      int     `json:"epochs"`
	GlobalBatch int     `json:"globalBatch"`
	ShuffleSeed int64   `json:"shuffleSeed"`

	// Topology: groups of GroupSize form intra-group rings with a leader
	// ring across them (0 = flat ring).
	GroupSize int `json:"groupSize"`

	// Recovery: rank 0 checkpoints the session to CkptPath every
	// CkptEverySteps optimizer steps; every worker resumes from that file
	// at generation start. The path must be readable by all workers
	// (same-host processes or a shared filesystem).
	CkptPath       string `json:"ckptPath"`
	CkptEverySteps int    `json:"ckptEverySteps"`

	// OpTimeoutMS bounds each wire collective; a peer that cannot
	// contribute within it breaks the ring with a timeout instead of
	// hanging the step (0 = 10s).
	OpTimeoutMS int `json:"opTimeoutMS"`

	// Codec names the gradient wire codec ("" or "none" = raw float32,
	// "fp16", "int8"). Every worker applies the same spec, and the ring
	// handshake re-verifies — a worker started with a divergent codec fails
	// formation rather than desyncing. The codec also fixes the reduction:
	// monolithic for a lossless codec (bit-identical to the in-process
	// mirrored trainer), lossyBucketBytes buckets overlapped with backward
	// for a lossy one.
	Codec string `json:"codec,omitempty"`
}

// lossyBucketBytes is the gradient bucket size under a lossy codec: ~1/25
// of the paper U-Net's gradient volume, deep enough to pipeline without
// drowning small buckets in frame overhead.
const lossyBucketBytes = 64 << 10

// Validate reports whether the spec is complete enough to train from.
func (s *TrainSpec) Validate() error {
	switch {
	case s.Cases < 1:
		return fmt.Errorf("dist: spec needs Cases ≥ 1, got %d", s.Cases)
	case s.Dim < 1:
		return fmt.Errorf("dist: spec needs Dim ≥ 1, got %d", s.Dim)
	case s.Epochs < 1:
		return fmt.Errorf("dist: spec needs Epochs ≥ 1, got %d", s.Epochs)
	case s.GlobalBatch < 1:
		return fmt.Errorf("dist: spec needs GlobalBatch ≥ 1, got %d", s.GlobalBatch)
	case s.CkptPath == "":
		return fmt.Errorf("dist: spec needs a CkptPath (recovery is checkpoint-based)")
	}
	if _, err := allreduce.CodecByName(s.Codec); err != nil {
		return err
	}
	return nil
}

// netConfig derives the worker-local network configuration.
func (s *TrainSpec) netConfig(workers int) unet.Config {
	return unet.Config{
		InChannels:  4, // the MSD phantom's four modalities
		OutChannels: 1,
		BaseFilters: s.BaseFilters,
		Steps:       s.NetSteps,
		Kernel:      s.Kernel,
		UpKernel:    s.UpKernel,
		Seed:        s.NetSeed,
		Workers:     workers,
	}
}

// opTimeout returns the per-collective deadline.
func (s *TrainSpec) opTimeout() time.Duration {
	if s.OpTimeoutMS <= 0 {
		return 10 * time.Second
	}
	return time.Duration(s.OpTimeoutMS) * time.Millisecond
}

// buildData generates the phantom dataset locally and returns the train and
// validation sample sets — keyed only by the spec, so every worker sees
// identical bytes.
func (s *TrainSpec) buildData(net unet.Config) (train, val []*volume.Sample, err error) {
	return msd.Split(msd.Config{Cases: s.Cases, D: s.Dim, H: s.Dim, W: s.Dim, Seed: s.DataSeed},
		net.MinVolume(), 0, s.ValCases)
}

// Control-message types on the coordinator link (JSON lines, one object per
// message). Worker → coordinator: hello, heartbeat, stepDone, ckpt,
// haltAck, fail, done. Coordinator → worker: start, halt, stop.
const (
	msgHello     = "hello"
	msgHeartbeat = "heartbeat"
	msgStepDone  = "stepDone"
	msgCkpt      = "ckpt"
	msgHaltAck   = "haltAck"
	msgFail      = "fail"
	msgDone      = "done"
	msgStart     = "start"
	msgHalt      = "halt"
	msgStop      = "stop"
)

// ctrlMsg is the single wire shape of every control message; unused fields
// stay at their zero values and are omitted.
type ctrlMsg struct {
	Type    string     `json:"type"`
	Gen     uint32     `json:"gen,omitempty"`     // membership generation
	Rank    int        `json:"rank,omitempty"`    // assigned global rank (start)
	Addr    string     `json:"addr,omitempty"`    // worker ring address (hello)
	Members []string   `json:"members,omitempty"` // ring addresses by rank (start)
	Spec    *TrainSpec `json:"spec,omitempty"`    // training plan (start)
	Step    int        `json:"step,omitempty"`    // global step (stepDone, ckpt)
	Suspect int        `json:"suspect"`           // blamed rank, -1 unknown (fail)
	Hash    string     `json:"hash,omitempty"`    // final param hash (done)
	Err     string     `json:"err,omitempty"`     // failure description (fail)
}
