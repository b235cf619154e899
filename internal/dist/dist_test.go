package dist

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/mirrored"
	"repro/internal/netsim"
	"repro/internal/train"
)

// testSpec is the shared tiny training plan: 9 phantom cases split 6/1/2,
// global batch 3 → 2 steps per epoch, 2 epochs → 4 steps total, with a
// checkpoint after every step.
func testSpec(t *testing.T) TrainSpec {
	t.Helper()
	return TrainSpec{
		Cases: 9, Dim: 8, DataSeed: 7,
		BaseFilters: 2, NetSteps: 2, Kernel: 3, UpKernel: 2, NetSeed: 5,
		Loss: "dice", Optimizer: "adam", BaseLR: 0.003, ScaleLR: true,
		Epochs: 2, GlobalBatch: 3, ShuffleSeed: 11,
		CkptPath:       filepath.Join(t.TempDir(), "dist.ckpt"),
		CkptEverySteps: 1,
		OpTimeoutMS:    2000,
	}
}

// runCluster drives a coordinator plus width workers in-process. Workers
// that the fault hooks kill are restarted immediately — the elastic-rejoin
// path — until the coordinator finishes.
func runCluster(t *testing.T, spec TrainSpec, width int, hooks *Hooks, mod func(*CoordinatorConfig)) (*Result, error) {
	t.Helper()
	cfg := CoordinatorConfig{
		Width:            width,
		Spec:             spec,
		HeartbeatTimeout: 3 * time.Second,
		StepTimeout:      60 * time.Second,
		MemberWait:       20 * time.Second,
		MaxReforms:       5,
		Logf:             t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := RunWorker(WorkerConfig{
					CoordAddr: c.Addr(),
					Heartbeat: 100 * time.Millisecond,
					Hooks:     hooks,
				})
				if errors.Is(err, ErrKilled) {
					continue // rejoin elastically, as a respawned process would
				}
				if err != nil {
					t.Logf("worker exited: %v", err)
				}
				return
			}
		}()
	}
	res, err := c.Run()
	wg.Wait()
	return res, err
}

// stallWatchdog crashes the test binary with every goroutine's stack if the
// test is still running after d, so a membership hang shows where the
// coordinator and each worker loop are stuck instead of idling until go
// test's own timeout. Use as defer stallWatchdog(t, d).Stop().
func stallWatchdog(t *testing.T, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		buf := make([]byte, 4<<20)
		panic(fmt.Sprintf("%s: stalled for %v; goroutines:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
}

// TestDistMatchesMirrored: a 3-process run over the wire produces bitwise
// the parameters of a 3-replica in-process mirrored run on the same plan,
// for both the flat and the hierarchical topology.
func TestDistMatchesMirrored(t *testing.T) {
	for _, tc := range []struct {
		name      string
		groupSize int
	}{
		{"flat-ring", 0},
		{"hierarchical-2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(t)
			spec.GroupSize = tc.groupSize
			res, err := runCluster(t, spec, 3, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Gens != 1 || res.Reforms != 0 {
				t.Fatalf("clean run took %d gens, %d reforms", res.Gens, res.Reforms)
			}
			if res.Steps != 4 {
				t.Fatalf("ran %d steps, want 4", res.Steps)
			}

			netCfg := spec.netConfig(0)
			mcfg := mirrored.Config{
				Replicas:  3,
				Net:       netCfg,
				Loss:      spec.Loss,
				Optimizer: spec.Optimizer,
				BaseLR:    spec.BaseLR,
				ScaleLR:   spec.ScaleLR,
				GroupSize: tc.groupSize,
			}
			tr, err := mirrored.New(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := train.NewSession(train.Config{
				Strategy: tr, Epochs: spec.Epochs, GlobalBatch: spec.GlobalBatch, Seed: spec.ShuffleSeed,
			})
			if err != nil {
				t.Fatal(err)
			}
			trainSet, valSet, err := spec.buildData(netCfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Fit(trainSet, valSet); err != nil {
				t.Fatal(err)
			}
			if want := ParamHash(tr.Model()); res.Hash != want {
				t.Fatalf("wire hash %s != in-process mirrored hash %s", res.Hash, want)
			}
		})
	}
}

// TestKillAndRejoinBitIdentical is the acceptance gate: a 3-worker run with
// one worker killed mid-training and rejoined from the checkpoint finishes
// with bit-for-bit the parameters of an uninterrupted 3-worker run.
func TestKillAndRejoinBitIdentical(t *testing.T) {
	defer stallWatchdog(t, time.Minute).Stop()
	clean, err := runCluster(t, testSpec(t), 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Gens != 1 {
		t.Fatalf("uninterrupted run took %d gens", clean.Gens)
	}

	hooks := &Hooks{
		AfterStep: func(gen uint32, rank, step int) error {
			if gen == 1 && rank == 1 && step == 1 {
				return ErrKilled
			}
			return nil
		},
	}
	killed, err := runCluster(t, testSpec(t), 3, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if killed.Gens < 2 || killed.Reforms < 1 {
		t.Fatalf("kill was not recovered through a reform: %d gens, %d reforms", killed.Gens, killed.Reforms)
	}
	if killed.Width != 3 {
		t.Fatalf("finished at width %d, want the rejoined full width 3", killed.Width)
	}
	if killed.Hash != clean.Hash {
		t.Fatalf("final parameters diverged: killed run %s, uninterrupted %s", killed.Hash, clean.Hash)
	}
}

// TestFaultMatrix drives the netsim fault layer through the full recovery
// machinery: partitions at every ring position, connection kills before,
// during and after reduces, and a slow worker breaching the op deadline all
// converge to the clean run's exact parameters after a reform; a persistent
// fault surfaces as the named ErrTooManyReforms.
func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-generation fault matrix is slow")
	}
	spec := testSpec(t)
	spec.OpTimeoutMS = 1000
	clean, err := runCluster(t, spec, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		rank       int
		fault      netsim.Fault
		persistent bool
		wantErr    error
	}{
		{name: "partition-rank0", rank: 0, fault: netsim.Fault{PartitionSend: true}},
		{name: "partition-rank1", rank: 1, fault: netsim.Fault{PartitionSend: true}},
		{name: "partition-rank2", rank: 2, fault: netsim.Fault{PartitionSend: true}},
		// 6 sends per step on the forward link (4 all-reduce chunks + 2
		// loss-gather frames): 1 kills before the first reduce completes,
		// 3 mid-reduce, 20 after three checkpointed steps.
		{name: "conn-kill-before-reduce", rank: 1, fault: netsim.Fault{DropAfterSends: 1}},
		{name: "conn-kill-during-reduce", rank: 1, fault: netsim.Fault{DropAfterSends: 3}},
		{name: "conn-kill-after-steps", rank: 1, fault: netsim.Fault{DropAfterSends: 20}},
		{name: "slow-worker-timeout", rank: 2, fault: netsim.Fault{Delay: 1500 * time.Millisecond}},
		{name: "persistent-partition", rank: 1, fault: netsim.Fault{PartitionSend: true},
			persistent: true, wantErr: ErrTooManyReforms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(t)
			spec.OpTimeoutMS = 1000
			hooks := &Hooks{
				WrapConn: func(gen uint32, self, peer int, c allreduce.Conn) allreduce.Conn {
					if self != tc.rank || (gen != 1 && !tc.persistent) {
						return c
					}
					return netsim.WrapConn(c, tc.fault)
				},
			}
			res, err := runCluster(t, spec, 3, hooks, func(cfg *CoordinatorConfig) {
				cfg.MaxReforms = 2
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("got err %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Gens < 2 {
				t.Fatalf("fault did not force a reform: %d gens", res.Gens)
			}
			if res.Hash != clean.Hash {
				t.Fatalf("recovered parameters diverged: %s, clean %s", res.Hash, clean.Hash)
			}
		})
	}
}

// TestCoordinatorMembershipTimeout: a coordinator nobody joins fails with
// the named membership error instead of hanging.
func TestCoordinatorMembershipTimeout(t *testing.T) {
	spec := testSpec(t)
	c, err := NewCoordinator(CoordinatorConfig{
		Width: 2, Spec: spec, MemberWait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); !errors.Is(err, ErrMembership) {
		t.Fatalf("got %v, want ErrMembership", err)
	}
}

// TestSpecValidation: incomplete specs are rejected before any network
// activity.
func TestSpecValidation(t *testing.T) {
	good := testSpec(t)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*TrainSpec){
		func(s *TrainSpec) { s.Cases = 0 },
		func(s *TrainSpec) { s.Epochs = 0 },
		func(s *TrainSpec) { s.GlobalBatch = 0 },
		func(s *TrainSpec) { s.CkptPath = "" },
	} {
		s := testSpec(t)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("mutated spec %+v must not validate", s)
		}
	}
}
