package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/mirrored"
	"repro/internal/train"
	"repro/internal/volume"
)

// ErrKilled reports that the worker was killed by its fault-injection hook
// — the in-process stand-in for an abrupt process death. The worker drops
// its coordinator link and ring listener without a word, exactly as a
// SIGKILLed process would; the command layer's workers exit the process
// instead.
var ErrKilled = errors.New("dist: worker killed")

// errHalted aborts a training generation at a step boundary when the
// coordinator requests a halt.
var errHalted = errors.New("dist: generation halted")

// Hooks injects faults into a worker for the test harness. Both hooks see
// the membership generation, so a fault can be keyed to a single
// generation (transient) or left unconditional (persistent).
type Hooks struct {
	// WrapConn wraps every ring link after the handshake — the
	// netsim.FaultConn attachment point. self and peer are global ranks.
	WrapConn func(gen uint32, self, peer int, c allreduce.Conn) allreduce.Conn
	// AfterStep fires after each completed optimizer step (checkpoint
	// included, notification sent); returning ErrKilled makes the worker
	// die abruptly, any other error aborts the generation as a failure.
	AfterStep func(gen uint32, rank, step int) error
}

// WorkerConfig describes one training worker.
type WorkerConfig struct {
	CoordAddr  string        // coordinator control address (required)
	ListenAddr string        // ring listen address ("" = 127.0.0.1:0)
	Workers    int           // compute-worker budget (0 = all cores)
	DialFor    time.Duration // coordinator dial budget (0 = 10s)
	Heartbeat  time.Duration // heartbeat interval (0 = 200ms)
	Hooks      *Hooks        // fault injection (nil = none)
}

// Worker is one member of the training membership: it joins the
// coordinator, then runs whatever generations it is assigned until the
// coordinator says stop, a hook kills it, or the control link breaks.
type Worker struct {
	cfg  WorkerConfig
	ln   net.Listener
	ctrl net.Conn

	encMu sync.Mutex
	enc   *json.Encoder

	killed  bool
	killMu  sync.Mutex
	stopped chan struct{}

	dataOnce sync.Once
	trainSet []*volume.Sample
	valSet   []*volume.Sample
	dataErr  error
}

// genRun tracks one in-flight training generation.
type genRun struct {
	gen    uint32
	halt   chan struct{} // closed to request a halt at the next step boundary
	done   chan struct{} // closed when the training goroutine has exited
	halted bool          // halt already requested (main-loop state)
}

// RunWorker joins the coordinator at cfg.CoordAddr and serves training
// generations until stopped. It returns nil after a coordinator stop,
// ErrKilled after a hook kill, and the transport error otherwise.
func RunWorker(cfg WorkerConfig) error {
	if cfg.CoordAddr == "" {
		return fmt.Errorf("dist: worker needs a coordinator address")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.DialFor <= 0 {
		cfg.DialFor = 10 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 200 * time.Millisecond
	}
	w := &Worker{cfg: cfg, stopped: make(chan struct{})}
	return w.run()
}

func (w *Worker) run() error {
	ln, err := net.Listen("tcp", w.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("dist: worker listen: %w", err)
	}
	w.ln = ln
	defer ln.Close()

	ctrl, err := dialCtrl(w.cfg.CoordAddr, w.cfg.DialFor)
	if err != nil {
		return err
	}
	w.ctrl = ctrl
	defer ctrl.Close()
	w.enc = json.NewEncoder(ctrl)
	dec := json.NewDecoder(ctrl)

	if err := w.send(ctrlMsg{Type: msgHello, Addr: ln.Addr().String(), Suspect: -1}); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}

	// Heartbeats flow on a separate goroutine so a long step never reads as
	// a death; send errors are ignored — the control loop notices the
	// broken link through its own read.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(w.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				w.send(ctrlMsg{Type: msgHeartbeat, Suspect: -1})
			}
		}
	}()

	var run *genRun
	stopRun := func() {
		if run == nil {
			return
		}
		if !run.halted {
			run.halted = true
			close(run.halt)
		}
		<-run.done
		run = nil
	}
	defer stopRun()

	for {
		var msg ctrlMsg
		if err := dec.Decode(&msg); err != nil {
			if w.wasKilled() {
				return ErrKilled
			}
			select {
			case <-w.stopped:
				return nil
			default:
			}
			return fmt.Errorf("dist: coordinator link lost: %w", err)
		}
		switch msg.Type {
		case msgStart:
			if msg.Spec == nil {
				return fmt.Errorf("dist: start without a spec")
			}
			stopRun()
			run = &genRun{gen: msg.Gen, halt: make(chan struct{}), done: make(chan struct{})}
			go w.runGeneration(run, msg.Rank, msg.Members, *msg.Spec)
		case msgHalt:
			if run == nil || run.gen != msg.Gen {
				// Nothing running under that generation: already idle.
				w.send(ctrlMsg{Type: msgHaltAck, Gen: msg.Gen, Suspect: -1})
				continue
			}
			if run.halted {
				// A resent halt: the ack follows once the generation stops.
				// Acking now would let the next start overlap this one.
				continue
			}
			run.halted = true
			close(run.halt)
			// Acknowledge only once the training goroutine has actually
			// stopped, off the control loop so reads keep draining while a
			// broken collective waits out its deadline.
			r := run
			go func() {
				<-r.done
				w.send(ctrlMsg{Type: msgHaltAck, Gen: r.gen, Suspect: -1})
			}()
		case msgStop:
			close(w.stopped)
			stopRun()
			return nil
		}
	}
}

// wasKilled reports whether the kill hook fired.
func (w *Worker) wasKilled() bool {
	w.killMu.Lock()
	defer w.killMu.Unlock()
	return w.killed
}

// kill simulates abrupt process death: everything closes at once, nothing
// is announced.
func (w *Worker) kill() {
	w.killMu.Lock()
	w.killed = true
	w.killMu.Unlock()
	w.ctrl.Close()
	w.ln.Close()
}

// send writes one control message; the encoder is shared between the
// control loop, the heartbeat goroutine and the training goroutine.
func (w *Worker) send(m ctrlMsg) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return w.enc.Encode(m)
}

// runGeneration executes one training generation and reports its outcome.
func (w *Worker) runGeneration(run *genRun, rank int, members []string, spec TrainSpec) {
	defer close(run.done)
	err := w.train(run, rank, members, spec)
	switch {
	case err == nil:
		// done was sent by train (it needs the strategy for the hash).
	case errors.Is(err, errHalted):
		// The halt handler acks once run.done closes.
	case errors.Is(err, ErrKilled):
		w.kill()
	default:
		suspect := -1
		if r, ok := allreduce.Suspect(err); ok {
			suspect = r
		}
		w.send(ctrlMsg{Type: msgFail, Gen: run.gen, Suspect: suspect, Err: err.Error()})
	}
}

// haltCheck aborts the session at the next step boundary after a halt.
type haltCheck struct {
	train.NopCallback
	halt chan struct{}
}

func (h *haltCheck) OnStepBegin(*train.Session, int) error {
	select {
	case <-h.halt:
		return errHalted
	default:
		return nil
	}
}

// notifier streams step and checkpoint progress to the coordinator, fires
// the AfterStep fault hook, and keeps the worker's process metrics current.
type notifier struct {
	train.NopCallback
	w        *Worker
	gen      uint32
	rank     int
	hook     func(gen uint32, rank, step int) error
	lastStep time.Time
}

func (n *notifier) OnStepEnd(s *train.Session, step int, loss float64) error {
	n.w.send(ctrlMsg{Type: msgStepDone, Gen: n.gen, Step: step, Suspect: -1})
	workerSteps.Inc()
	now := time.Now()
	if !n.lastStep.IsZero() {
		if dt := now.Sub(n.lastStep).Seconds(); dt > 0 {
			const alpha = 0.2
			workerStepRate.Set(alpha*(1/dt) + (1-alpha)*workerStepRate.Value())
		}
	}
	n.lastStep = now
	if n.hook != nil {
		return n.hook(n.gen, n.rank, step)
	}
	return nil
}

func (n *notifier) OnCheckpoint(s *train.Session, path string) error {
	n.w.send(ctrlMsg{Type: msgCkpt, Gen: n.gen, Step: s.Step(), Suspect: -1})
	workerCkpts.Inc()
	return nil
}

// train forms the ring, rebuilds the training state from the spec, resumes
// from the shared checkpoint and runs the session to the epoch budget.
func (w *Worker) train(run *genRun, rank int, members []string, spec TrainSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	workerGen.Set(float64(run.gen))
	netCfg := spec.netConfig(w.cfg.Workers)
	w.dataOnce.Do(func() {
		w.trainSet, w.valSet, w.dataErr = spec.buildData(netCfg)
	})
	if w.dataErr != nil {
		return w.dataErr
	}

	codec, err := allreduce.CodecByName(spec.Codec)
	if err != nil {
		return err
	}
	netConf := allreduce.NetConfig{Gen: run.gen, OpTimeout: spec.opTimeout(), Codec: codec}
	if w.cfg.Hooks != nil && w.cfg.Hooks.WrapConn != nil {
		hook := w.cfg.Hooks.WrapConn
		gen := run.gen
		netConf.Wrap = func(self, peer int, c allreduce.Conn) allreduce.Conn {
			return hook(gen, self, peer, c)
		}
	}
	topo, err := allreduce.FormTopology(w.ln, members, rank, spec.GroupSize, netConf)
	if err != nil {
		return err
	}
	defer topo.Close()

	strat, err := mirrored.NewRank(topo, netCfg, spec.Loss, spec.Optimizer, spec.BaseLR, spec.ScaleLR)
	if err != nil {
		return err
	}
	if !codec.Lossless() {
		strat.SetBucketBytes(lossyBucketBytes)
	}
	cbs := []train.Callback{&haltCheck{halt: run.halt}}
	if rank == 0 {
		cbs = append(cbs, &train.StepCheckpoint{Path: spec.CkptPath, EverySteps: spec.CkptEverySteps})
	}
	var hook func(uint32, int, int) error
	if w.cfg.Hooks != nil {
		hook = w.cfg.Hooks.AfterStep
	}
	cbs = append(cbs, &notifier{w: w, gen: run.gen, rank: rank, hook: hook}, train.NewTelemetry(nil, nil))

	session, err := train.NewSession(train.Config{
		Strategy:    strat,
		Epochs:      spec.Epochs,
		GlobalBatch: spec.GlobalBatch,
		Seed:        spec.ShuffleSeed,
		Callbacks:   cbs,
	})
	if err != nil {
		return err
	}
	// Every rank loads the same checkpoint file, which substitutes for the
	// in-process BroadcastParams: the membership starts the generation
	// bitwise synchronized on rank 0's last durable state.
	if _, err := session.ResumeFromFile(spec.CkptPath, nil); err != nil {
		return err
	}
	if _, err := session.Fit(w.trainSet, w.valSet); err != nil {
		return err
	}
	return w.send(ctrlMsg{Type: msgDone, Gen: run.gen, Hash: mirrored.ParamHash(strat.Model()), Step: session.Step(), Suspect: -1})
}

// dialCtrl dials the coordinator with retry — workers typically start
// before the coordinator finishes binding.
func dialCtrl(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 20 * time.Millisecond
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	return nil, fmt.Errorf("dist: dial coordinator %s: %w", addr, lastErr)
}
