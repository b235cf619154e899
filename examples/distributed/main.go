// Distributed demonstrates fault-tolerant multi-process data-parallel
// training: a coordinator and three workers speaking the TCP all-reduce
// protocol from internal/allreduce, with elastic membership and
// checkpoint-based recovery from internal/dist.
//
// The walkthrough has three acts:
//
//  1. A clean 3-worker run. Each worker is a full member of the ring:
//     it runs the same mirrored.Rank step as each replica of the
//     in-process mirrored trainer — its shard of every global batch,
//     gradients averaged by the same ring code, here over TCP — and
//     rank 0 checkpoints the session after every step. The run ends with
//     every rank reporting the same parameter hash.
//  2. The same run with rank 1 killed abruptly after its first optimizer
//     step. The coordinator notices the death, halts the survivors, and
//     — when the worker rejoins (here: the harness restarts it, as the
//     process spawner would) — re-forms the ring at full width and
//     resumes from the last checkpoint. Deterministic replay makes the
//     final parameters bit-for-bit identical to act 1. This act also
//     attaches a telemetry.Tracer to the coordinator and prints the
//     resulting lifecycle event stream — the JSONL trace that
//     cmd/distmis writes with -trace FILE.
//  3. The same run with a netsim-injected network partition on one ring
//     link. The broken collective surfaces within the op deadline, the
//     membership reforms, and the run again converges to act 1's hash.
//  4. The same run under fp16 gradient wire compression (TrainSpec.Codec),
//     which also switches the workers to the bucketed comms/compute-
//     overlapped reducer. The telemetry counters show exactly half the
//     gradient bytes on the wire; the final parameters differ from act 1
//     (the codec is lossy) but every rank still agrees bit-for-bit — the
//     all-gather forwards encoded payloads verbatim and each completing
//     rank requantizes its own result — so a kill-and-rejoin under fp16
//     recovers to the clean fp16 run's exact hash.
//
// The same machinery runs as real processes through cmd/distmis:
//
//	go run ./cmd/distmis -mode coordinator -width 3 -epochs 2 -cases 9 -dim 8 -batch 3
//	go run ./cmd/distmis -mode coordinator -width 3 ... -kill-rank 1 -kill-step 1
//	go run ./cmd/distmis -mode coordinator -width 3 ... -codec fp16
//
// Run with: go run ./examples/distributed
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// spec is the shared training plan: 9 phantom cases, 8^3 volumes, global
// batch 3 over 2 epochs → 4 optimizer steps, checkpointed after each.
func spec(ckptDir string) dist.TrainSpec {
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		log.Fatal(err)
	}
	return dist.TrainSpec{
		Cases: 9, Dim: 8, DataSeed: 7,
		BaseFilters: 2, NetSteps: 2, Kernel: 3, UpKernel: 2, NetSeed: 5,
		Loss: "dice", Optimizer: "adam", BaseLR: 0.003, ScaleLR: true,
		Epochs: 2, GlobalBatch: 3, ShuffleSeed: 11,
		CkptPath:       filepath.Join(ckptDir, "session.ckpt"),
		CkptEverySteps: 1,
		OpTimeoutMS:    2000,
	}
}

// runCluster drives a coordinator plus three workers in-process (each
// worker goroutine stands in for one OS process). Workers that die are
// restarted, which exercises the elastic-rejoin path exactly as the
// process spawner in cmd/distmis does. A non-nil tracer receives the
// coordinator's lifecycle events as JSONL records.
func runCluster(s dist.TrainSpec, hooks *dist.Hooks, tracer *telemetry.Tracer) (*dist.Result, error) {
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Width:            3,
		Spec:             s,
		HeartbeatTimeout: 3 * time.Second,
		MemberWait:       20 * time.Second,
		Logf:             log.Printf,
		Tracer:           tracer,
	})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := dist.RunWorker(dist.WorkerConfig{
					CoordAddr: c.Addr(),
					Heartbeat: 100 * time.Millisecond,
					Hooks:     hooks,
				})
				if errors.Is(err, dist.ErrKilled) {
					continue // rejoin, as a respawned process would
				}
				if err != nil {
					log.Printf("  [worker] exited: %v", err)
				}
				return
			}
		}()
	}
	res, err := c.Run()
	wg.Wait()
	return res, err
}

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "distributed-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Act 1: the uninterrupted baseline -------------------------------
	fmt.Println("act 1: clean 3-worker run over TCP")
	clean, err := runCluster(spec(filepath.Join(dir, "clean")), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d generations, %d steps, final params %s\n\n",
		clean.Gens, clean.Steps, clean.Hash)

	// --- Act 2: kill a worker mid-training, let it rejoin ----------------
	fmt.Println("act 2: rank 1 dies abruptly after step 1, rejoins from the checkpoint")
	kill := &dist.Hooks{
		AfterStep: func(gen uint32, rank, step int) error {
			if gen == 1 && rank == 1 && step == 1 {
				fmt.Println("  [worker] rank 1 killed")
				return dist.ErrKilled
			}
			return nil
		},
	}
	// The coordinator narrates the recovery as structured JSONL trace
	// events — the same stream cmd/distmis writes with -trace FILE and the
	// CI dist-smoke job asserts on.
	var traceBuf strings.Builder
	tracer := telemetry.NewTracer(&traceBuf, telemetry.TracerOptions{})
	killed, err := runCluster(spec(filepath.Join(dir, "killed")), kill, tracer)
	if err != nil {
		log.Fatal(err)
	}
	tracer.Close()
	fmt.Printf("  %d generations (%d reform), finished at width %d, final params %s\n",
		killed.Gens, killed.Reforms, killed.Width, killed.Hash)
	verdict("kill-and-rejoin", clean.Hash, killed.Hash)

	// Reading the trace: each line is one event with a monotonic ts_ns, the
	// generation it belongs to, and context in attrs. The recovery story —
	// gen_start, then worker_lost (cause=link|heartbeat), halt, reform and
	// rejoin, then the next gen_start, checkpoints, run_done — is assertable
	// from the names alone, no log scraping.
	fmt.Println("  the run as trace events:")
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var rec telemetry.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    gen %d %-12s %v\n", rec.Gen, rec.Name, rec.Attrs)
	}
	fmt.Println()

	// --- Act 3: a network partition on one ring link ---------------------
	fmt.Println("act 3: rank 2's forward ring link is partitioned during generation 1")
	part := &dist.Hooks{
		WrapConn: func(gen uint32, self, peer int, c allreduce.Conn) allreduce.Conn {
			if gen != 1 || self != 2 {
				return c
			}
			return netsim.WrapConn(c, netsim.Fault{PartitionSend: true})
		},
	}
	s := spec(filepath.Join(dir, "partitioned"))
	s.OpTimeoutMS = 1000 // the partition surfaces after one op deadline
	parted, err := runCluster(s, part, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d generations (%d reform), final params %s\n",
		parted.Gens, parted.Reforms, parted.Hash)
	verdict("partition-and-reform", clean.Hash, parted.Hash)

	// --- Act 4: fp16 gradient compression + overlapped reduction ---------
	// TrainSpec.Codec switches every gradient chunk to fp16 on the wire —
	// half the bytes — and, because the codec is lossy, also enables the
	// bucketed reducer that overlaps all-reduce with backward. The payload
	// counters (the same series a -metrics-addr listener exposes) give the
	// measured compression ratio.
	fmt.Println("act 4: the same plan under fp16 gradient wire compression")
	payload := telemetry.Default().CounterVec("allreduce_payload_bytes_total",
		"", "codec", "fp16").With("fp16")
	raw := telemetry.Default().CounterVec("allreduce_payload_raw_bytes_total",
		"", "codec", "fp16").With("fp16")
	p0, r0 := payload.Value(), raw.Value()

	fpSpec := spec(filepath.Join(dir, "fp16"))
	fpSpec.Codec = "fp16"
	fpClean, err := runCluster(fpSpec, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  clean fp16 run: %d steps, final params %s\n", fpClean.Steps, fpClean.Hash)
	fmt.Printf("  wire: %d payload bytes for %d raw gradient bytes (ratio %.3f)\n",
		payload.Value()-p0, raw.Value()-r0,
		float64(payload.Value()-p0)/float64(raw.Value()-r0))
	if fpClean.Hash == clean.Hash {
		log.Fatal("  FAIL: fp16 run matched the uncompressed hash — codec not applied?")
	}
	fmt.Println("  (differs from act 1's hash — fp16 is lossy — but every rank agrees)")

	// Compression composes with recovery: kill rank 1 mid-run, rejoin from
	// the checkpoint, and the fp16 run still converges to the clean fp16
	// run's exact parameters.
	fpKillSpec := spec(filepath.Join(dir, "fp16-killed"))
	fpKillSpec.Codec = "fp16"
	fpKilled, err := runCluster(fpKillSpec, kill, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  killed fp16 run: %d generations (%d reform), final params %s\n",
		fpKilled.Gens, fpKilled.Reforms, fpKilled.Hash)
	verdictAgainst("fp16 kill-and-rejoin", fpClean.Hash, fpKilled.Hash, "clean fp16 run")
}

func verdict(name, want, got string) {
	verdictAgainst(name, want, got, "clean run")
}

func verdictAgainst(name, want, got, ref string) {
	if want != got {
		log.Fatalf("  FAIL: %s diverged from the %s: %s != %s", name, ref, got, want)
	}
	fmt.Printf("  OK: %s is bit-identical to the %s\n\n", name, ref)
}
