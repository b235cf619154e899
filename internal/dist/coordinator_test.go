package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// tracedCoordinator builds a coordinator whose lifecycle events land in
// memory; records closes the tracer and returns them.
func tracedCoordinator(t *testing.T, cfg CoordinatorConfig) (c *Coordinator, records func() []telemetry.Record) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Tracer = telemetry.NewTracer(&buf, telemetry.TracerOptions{})
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.ln.Close() })
	return c, func() []telemetry.Record {
		cfg.Tracer.Close()
		var out []telemetry.Record
		dec := json.NewDecoder(&buf)
		for {
			var rec telemetry.Record
			if err := dec.Decode(&rec); err == io.EOF {
				return out
			} else if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec)
		}
	}
}

// pipeMember joins a member whose control link is one end of a net.Pipe;
// the far end is drained, so sends to it never block.
func pipeMember(t *testing.T, c *Coordinator, addr string, slot int) *member {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	t.Cleanup(func() { far.Close() })
	m := &member{conn: near, enc: json.NewEncoder(near), addr: addr, slot: slot, lastSeen: time.Now()}
	c.members = append(c.members, m)
	return m
}

// find returns the records named name.
func find(recs []telemetry.Record, name string) []telemetry.Record {
	var out []telemetry.Record
	for _, r := range recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestCheckpointCountsInEveryPhase: a checkpoint reported while the
// coordinator gathers or halts — from the current generation or an older
// one — is durable progress like one reported while training. It advances
// the progress cursor, clears the reforms counted against MaxReforms and is
// traced.
func TestCheckpointCountsInEveryPhase(t *testing.T) {
	for _, tc := range []struct {
		name string
		ph   phase
		gen  uint32
	}{
		{"halting", halting, 2},
		{"gathering-stale-gen", gathering, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, records := tracedCoordinator(t, CoordinatorConfig{Width: 2, Spec: testSpec(t), Logf: t.Logf})
			c.gen, c.phase, c.sinceCkpt = 2, tc.ph, 1
			m := pipeMember(t, c, "w0", 0)
			c.handle(event{m: m, msg: ctrlMsg{Type: msgCkpt, Gen: tc.gen, Step: 3, Suspect: -1}})
			if c.ckptStep != 3 || c.sinceCkpt != 0 {
				t.Fatalf("after a step-3 checkpoint: cursor %d, reforms since %d; want 3, 0", c.ckptStep, c.sinceCkpt)
			}
			ck := find(records(), "checkpoint")
			if len(ck) != 1 || ck[0].Attrs["step"] != "3" || ck[0].Gen != 2 {
				t.Fatalf("checkpoint trace %+v, want one step=3 event in gen 2", ck)
			}
		})
	}
}

// TestLinkLossTracedInEveryPhase: a slotted worker whose control link
// breaks while the coordinator gathers or halts is dropped and traced as
// worker_lost with cause=link, as while training; a parked worker's link
// death is dropped without an event.
func TestLinkLossTracedInEveryPhase(t *testing.T) {
	for name, ph := range map[string]phase{"gathering": gathering, "halting": halting} {
		t.Run(name, func(t *testing.T) {
			c, records := tracedCoordinator(t, CoordinatorConfig{Width: 1, Spec: testSpec(t), Logf: t.Logf})
			c.gen, c.phase = 1, ph
			slotted := pipeMember(t, c, "w0", 0)
			parked := pipeMember(t, c, "w1", -1)
			c.handle(event{m: slotted, err: io.EOF})
			if c.isMember(slotted) {
				t.Fatal("the dead worker is still a member")
			}
			if parked.slot != 0 {
				t.Fatalf("the parked worker holds slot %d, want the freed slot 0", parked.slot)
			}
			c.handle(event{m: pipeMember(t, c, "w2", -1), err: io.EOF})

			recs := records()
			lost := find(recs, "worker_lost")
			if len(lost) != 1 || lost[0].Attrs["addr"] != "w0" || lost[0].Attrs["cause"] != "link" {
				t.Fatalf("worker_lost trace %+v, want one cause=link event for w0", lost)
			}
			if rj := find(recs, "rejoin"); len(rj) != 1 || rj[0].Attrs["addr"] != "w1" {
				t.Fatalf("rejoin trace %+v, want w1 taking the freed slot", rj)
			}
		})
	}
}

// TestSpawnedRecoveryTraceOrder runs the kill-and-rejoin plan the way
// distmis does: the coordinator spawns every worker through SetSpawn, and a
// killed worker stays dead, so its replacement is spawned and joins only
// after the reform. The trace must tell that recovery in order and the run
// must end at full width with the uninterrupted run's parameters.
func TestSpawnedRecoveryTraceOrder(t *testing.T) {
	defer stallWatchdog(t, time.Minute).Stop()
	clean, err := runCluster(t, testSpec(t), 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	c, records := tracedCoordinator(t, clusterConfig(t, testSpec(t), 3))
	hooks := &Hooks{
		AfterStep: func(gen uint32, rank, step int) error {
			if gen == 1 && rank == 1 && step == 1 {
				return ErrKilled
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	spawns := 0
	c.SetSpawn(func() error {
		spawns++
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(WorkerConfig{CoordAddr: c.Addr(), Heartbeat: 100 * time.Millisecond, Hooks: hooks})
			if err != nil && !errors.Is(err, ErrKilled) {
				t.Logf("worker exited: %v", err)
			}
		}()
		return nil
	})
	res, err := c.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if spawns != 4 {
		t.Errorf("spawned %d workers, want 3 plus 1 replacement", spawns)
	}
	if res.Width != 3 || res.Hash != clean.Hash {
		t.Fatalf("recovered run: width %d hash %s; want width 3 and the clean hash %s", res.Width, res.Hash, clean.Hash)
	}

	recs := records()
	want := []string{"gen_start", "worker_lost", "halt", "reform", "rejoin", "gen_start", "checkpoint", "run_done"}
	var names []string
	next := 0
	for _, r := range recs {
		names = append(names, r.Name)
		if next < len(want) && r.Name == want[next] && (r.Name != "worker_lost" || r.Attrs["cause"] == "link") {
			next++
		}
	}
	if next < len(want) {
		t.Fatalf("trace %v lacks %v in order (matched up to %q)", names, want, want[next])
	}
}

// TestCoordinatorDegradedWidth: when only 2 of 3 workers join within
// MemberWait, the run goes ahead at width 2 if the global batch shards over
// it, and fails with ErrMembership if it does not.
func TestCoordinatorDegradedWidth(t *testing.T) {
	for _, tc := range []struct {
		batch   int
		wantErr error
	}{
		{2, nil},
		{3, ErrMembership},
	} {
		t.Run(fmt.Sprintf("batch-%d", tc.batch), func(t *testing.T) {
			defer stallWatchdog(t, time.Minute).Stop()
			spec := testSpec(t)
			spec.GlobalBatch = tc.batch
			cfg := clusterConfig(t, spec, 3)
			cfg.MemberWait = time.Second
			c, records := tracedCoordinator(t, cfg)
			var wg sync.WaitGroup
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := RunWorker(WorkerConfig{CoordAddr: c.Addr(), Heartbeat: 100 * time.Millisecond}); err != nil {
						t.Logf("worker exited: %v", err)
					}
				}()
			}
			res, err := c.Run()
			wg.Wait()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("got %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Width != 2 || res.Gens != 1 {
				t.Fatalf("finished at width %d after %d gens, want width 2 in one", res.Width, res.Gens)
			}
			if d := find(records(), "degraded"); len(d) != 1 || d[0].Attrs["width"] != "2" {
				t.Fatalf("degraded trace %+v, want one width=2 event", d)
			}
		})
	}
}
