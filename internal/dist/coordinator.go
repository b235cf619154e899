package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Named coordinator failures.
var (
	// ErrMembership reports that the membership could not be assembled: no
	// workers, or a degraded width the global batch cannot shard over.
	ErrMembership = errors.New("dist: membership unavailable")
	// ErrTooManyReforms reports that consecutive reforms made no durable
	// progress — a persistent fault (partition, chronically slow worker)
	// rather than a transient one.
	ErrTooManyReforms = errors.New("dist: too many reforms without progress")
	// ErrDesync reports that the ranks finished with disagreeing parameter
	// hashes, a violation of the synchronous-SGD invariant.
	ErrDesync = errors.New("dist: ranks finished with diverged parameters")
)

// CoordinatorConfig describes a coordinated training run.
type CoordinatorConfig struct {
	Addr  string    // control listen address ("" = 127.0.0.1:0)
	Width int       // target data-parallel width (required)
	Spec  TrainSpec // the training plan broadcast to every generation

	HeartbeatTimeout time.Duration // silence before a worker is dead (0 = 2s)
	StepTimeout      time.Duration // training no-progress watchdog (0 = 60s)
	MemberWait       time.Duration // full-width wait before degrading (0 = 30s)
	MaxReforms       int           // reforms without a new checkpoint (0 = 5)
	Logf             func(format string, args ...any)

	// Tracer, when non-nil, receives one structured event per membership
	// lifecycle transition: gen_start, worker_lost, worker_fail, halt,
	// reform, rejoin, degraded, checkpoint and run_done. The records carry
	// the generation and identify workers by address and slot, so a
	// fault-injection run's recovery path can be asserted from the JSONL
	// stream alone.
	Tracer *telemetry.Tracer
}

// Result summarizes a completed coordinated run.
type Result struct {
	Hash    string // final parameter hash, agreed by every rank
	Gens    int    // membership generations run
	Reforms int    // recoveries (generations after the first)
	Steps   int    // global optimizer steps at completion
	Width   int    // width of the finishing generation
}

// member is the coordinator's view of one worker connection. All fields
// are owned by the run loop.
type member struct {
	conn     net.Conn
	enc      *json.Encoder
	addr     string // ring address from the hello
	slot     int    // stable identity 0..Width-1, -1 while parked
	lastSeen time.Time
	idle     bool   // not running a generation (acked, failed or done)
	hash     string // final hash when done under the current generation
	done     bool
}

// event funnels everything the run loop reacts to into one channel.
type event struct {
	m    *member
	msg  ctrlMsg
	err  error // non-nil: the member's control link broke
	join bool  // m is a fresh connection that completed its hello
}

// phase is where the run loop stands between two generations' starts.
// Every event means the same in each phase; only the completion check
// that moves the run on differs.
type phase int

const (
	gathering phase = iota // waiting for a membership to start a generation
	training               // a generation is running
	halting                // stopping every survivor before a reform
)

// Coordinator drives a fault-tolerant data-parallel run.
type Coordinator struct {
	cfg    CoordinatorConfig
	spawn  func() error // launches one worker aimed at Addr (nil = none)
	ln     net.Listener
	ev     chan event
	closed chan struct{} // run loop gone; unblocks event producers

	// Run-loop state.
	members   []*member // join order; slots assigned from here
	gen       uint32
	phase     phase
	deadline  time.Time // gathering: degrade; halting: drop the busy
	spawned   int       // spawns not yet joined
	reform    bool      // the running generation must be re-formed
	failed    time.Time // the running generation's first failure report
	progress  time.Time // the running generation's last step progress
	finalStep int       // global steps the running generation reached
	ckptStep  int       // highest checkpointed step, from any generation
	reforms   int       // reforms so far
	sinceCkpt int       // reforms since ckptStep last advanced
}

// trace emits one lifecycle event stamped with the current generation.
// Safe with no tracer configured; only the run loop calls it, so reading
// c.gen needs no synchronization.
func (c *Coordinator) trace(name string, kv ...string) {
	if c.cfg.Tracer == nil {
		return
	}
	var attrs map[string]string
	if len(kv) > 0 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	c.cfg.Tracer.Emit(telemetry.Record{Kind: telemetry.KindEvent, Name: name, Gen: int64(c.gen), Attrs: attrs})
}

// post delivers an event unless the run loop has exited.
func (c *Coordinator) post(ev event) bool {
	select {
	case c.ev <- ev:
		return true
	case <-c.closed:
		return false
	}
}

// NewCoordinator binds the control listener so Addr is routable before any
// worker is spawned; Run does the rest.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Width < 1 {
		return nil, fmt.Errorf("dist: Width must be ≥ 1, got %d", cfg.Width)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.StepTimeout <= 0 {
		cfg.StepTimeout = 60 * time.Second
	}
	if cfg.MemberWait <= 0 {
		cfg.MemberWait = 30 * time.Second
	}
	if cfg.MaxReforms <= 0 {
		cfg.MaxReforms = 5
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	return &Coordinator{cfg: cfg, ln: ln, ev: make(chan event, 64), closed: make(chan struct{}), ckptStep: -1}, nil
}

// Addr returns the bound control address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// SetSpawn installs the worker spawner, which launches one worker process
// aimed at Addr; it is called once per vacant slot while gathering. It
// exists apart from the config because the spawner usually needs Addr,
// which only exists once NewCoordinator has bound the listener. Without
// one, workers join on their own. Must be called before Run.
func (c *Coordinator) SetSpawn(spawn func() error) { c.spawn = spawn }

// accept admits workers: read the hello, then stream the connection's
// messages into the event loop.
func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			dec := json.NewDecoder(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var hello ctrlMsg
			if err := dec.Decode(&hello); err != nil || hello.Type != msgHello || hello.Addr == "" {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			// A fresh connection runs nothing until its first start.
			m := &member{conn: conn, enc: json.NewEncoder(conn), addr: hello.Addr, slot: -1, idle: true}
			if !c.post(event{m: m, join: true}) {
				conn.Close()
				return
			}
			for {
				var msg ctrlMsg
				if err := dec.Decode(&msg); err != nil {
					c.post(event{m: m, err: err})
					return
				}
				if !c.post(event{m: m, msg: msg}) {
					return
				}
			}
		}(conn)
	}
}

// live returns the slotted members ordered by slot — the next generation's
// ranks.
func (c *Coordinator) live() []*member {
	var out []*member
	for _, m := range c.members {
		if m.slot >= 0 {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].slot < out[j].slot })
	return out
}

// assignSlots fills vacant slots from parked members in join order. Once
// the first generation has run, a parked member acquiring a slot is a
// recovery — a respawned replacement or an elastic rejoin — whichever
// event slotted it, so the rejoin trace event is emitted here.
func (c *Coordinator) assignSlots() {
	used := map[int]bool{}
	for _, m := range c.members {
		if m.slot >= 0 {
			used[m.slot] = true
		}
	}
	for _, m := range c.members {
		if m.slot >= 0 {
			continue
		}
		for s := 0; s < c.cfg.Width; s++ {
			if !used[s] {
				m.slot = s
				used[s] = true
				if c.gen > 0 {
					c.trace("rejoin", "addr", m.addr, "slot", strconv.Itoa(s))
				}
				break
			}
		}
	}
}

// lose drops a dead member. Losing a slotted one is traced with its cause
// and re-forms the running generation.
func (c *Coordinator) lose(m *member, cause, why string) {
	c.cfg.Logf("gen %d: worker %s (slot %d) lost: %s", c.gen, m.addr, m.slot, why)
	if m.slot >= 0 {
		c.trace("worker_lost", "addr", m.addr, "slot", strconv.Itoa(m.slot), "cause", cause)
		c.reform = true
	}
	m.conn.Close()
	for i, o := range c.members {
		if o == m {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	c.assignSlots()
}

// sendTo writes one control message, tolerating broken links (the read
// side reports the death).
func (c *Coordinator) sendTo(m *member, msg ctrlMsg) {
	m.enc.Encode(msg)
}

// stopAll tells every connected worker to exit.
func (c *Coordinator) stopAll() {
	for _, m := range c.members {
		c.sendTo(m, ctrlMsg{Type: msgStop, Suspect: -1})
	}
}

// Run drives the generation loop to completion: gather a membership, start
// a generation, and on any failure halt the survivors and re-form. It
// returns when every rank of a generation finishes with the same parameter
// hash, or with a named error.
func (c *Coordinator) Run() (*Result, error) {
	defer c.ln.Close()
	go c.accept()
	defer close(c.closed)
	defer c.stopAll()

	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	c.gather()
	for {
		if res, err := c.advance(); res != nil || err != nil {
			return res, err
		}
		select {
		case ev := <-c.ev:
			c.handle(ev)
		case <-tick.C:
			c.reapStale()
			if c.phase == halting {
				// Resent so none waits on a halt that crossed a drop or rejoin.
				c.sendHalts()
			}
		}
	}
}

// handle applies one event to the membership. An event means the same in
// every phase.
func (c *Coordinator) handle(ev event) {
	m := ev.m
	if ev.join {
		c.members = append(c.members, m)
		m.lastSeen = time.Now()
		if c.spawned > 0 {
			c.spawned-- // a join consumes an outstanding spawn
		}
		c.assignSlots()
		if m.slot >= 0 {
			// The newcomer filled a vacancy: a running generation is
			// narrower than the target and re-forms to take it in.
			c.cfg.Logf("gen %d: worker %s joined slot %d", c.gen, m.addr, m.slot)
			c.reform = true
		}
		return
	}
	if !c.isMember(m) {
		return
	}
	if ev.err != nil {
		c.lose(m, "link", ev.err.Error())
		return
	}
	m.lastSeen = time.Now()
	msg := ev.msg
	if msg.Type == msgCkpt && msg.Step > c.ckptStep {
		// Durable progress counts whatever generation sent it.
		c.ckptStep, c.sinceCkpt = msg.Step, 0
		c.trace("checkpoint", "step", strconv.Itoa(msg.Step))
	}
	if msg.Gen != c.gen {
		return // heartbeat, or stale chatter from a previous generation
	}
	switch msg.Type {
	case msgStepDone:
		c.progress = time.Now()
		c.finalStep = max(c.finalStep, msg.Step+1)
	case msgCkpt:
		c.progress = time.Now()
	case msgDone:
		m.done, m.idle, m.hash = true, true, msg.Hash
		c.finalStep = max(c.finalStep, msg.Step)
	case msgFail:
		c.cfg.Logf("gen %d: worker %s (rank slot %d) failed, suspect %d: %s",
			c.gen, m.addr, m.slot, msg.Suspect, msg.Err)
		c.trace("worker_fail", "addr", m.addr,
			"slot", strconv.Itoa(m.slot), "suspect", strconv.Itoa(msg.Suspect))
		m.idle = true
		if c.failed.IsZero() {
			c.failed = time.Now()
		}
	case msgHaltAck:
		m.idle = true
	}
}

// reapStale drops members whose heartbeats stopped.
func (c *Coordinator) reapStale() {
	now := time.Now()
	for _, m := range append([]*member(nil), c.members...) {
		if now.Sub(m.lastSeen) > c.cfg.HeartbeatTimeout {
			c.lose(m, "heartbeat", "heartbeat stale")
		}
	}
}

// advance runs the current phase's completion check until the phase stops
// changing. It returns the result once a generation completes, or a
// terminal error.
func (c *Coordinator) advance() (*Result, error) {
	for {
		p := c.phase
		var res *Result
		var err error
		switch p {
		case gathering:
			err = c.gathered()
		case training:
			res, err = c.trained()
		case halting:
			err = c.halted()
		}
		if res != nil || err != nil || c.phase == p {
			return res, err
		}
	}
}

// gather waits for a new membership.
func (c *Coordinator) gather() {
	c.phase, c.deadline, c.spawned = gathering, time.Now().Add(c.cfg.MemberWait), 0
}

// gathered starts the next generation at the full target width, or — once
// the member-wait budget runs out — at a degraded width the global batch
// still shards over. Vacant slots are respawned through the spawner.
func (c *Coordinator) gathered() error {
	for c.spawn != nil && len(c.members)+c.spawned < c.cfg.Width {
		if err := c.spawn(); err != nil {
			return fmt.Errorf("dist: spawn worker: %w", err)
		}
		c.spawned++
	}
	live := c.live()
	if w := len(live); w < c.cfg.Width {
		if time.Now().Before(c.deadline) {
			return nil
		}
		if w == 0 {
			return fmt.Errorf("%w: no workers joined within %v", ErrMembership, c.cfg.MemberWait)
		}
		if c.cfg.Spec.GlobalBatch%w != 0 {
			return fmt.Errorf("%w: degraded width %d cannot shard global batch %d",
				ErrMembership, w, c.cfg.Spec.GlobalBatch)
		}
		c.cfg.Logf("gen %d: degrading to width %d of %d", c.gen+1, w, c.cfg.Width)
		c.trace("degraded", "width", strconv.Itoa(w), "target", strconv.Itoa(c.cfg.Width))
	}

	c.gen++
	c.phase, c.reform, c.failed, c.progress, c.finalStep = training, false, time.Time{}, time.Now(), 0
	members := make([]string, len(live))
	for rank, m := range live {
		members[rank] = m.addr
		m.idle, m.done, m.hash = false, false, ""
	}
	c.cfg.Logf("gen %d: starting width-%d ring %v", c.gen, len(live), members)
	c.trace("gen_start", "width", strconv.Itoa(len(live)))
	for rank, m := range live {
		c.sendTo(m, ctrlMsg{Type: msgStart, Gen: c.gen, Rank: rank, Members: members, Spec: &c.cfg.Spec, Suspect: -1})
	}
	return nil
}

// failGrace is how long a failure report waits before it halts the
// generation. A rank fails because something broke its ring, most often a
// peer's death, and the report and the dead peer's broken control link
// race to the coordinator over separate sockets; the grace lets the loss
// that caused the failure be traced before the halt.
const failGrace = 100 * time.Millisecond

// trained completes the run once every rank is done with equal hashes, and
// halts the generation on a loss, a rejoin, a failure report (after
// failGrace) or a step that makes no progress within StepTimeout.
func (c *Coordinator) trained() (*Result, error) {
	live := c.live()
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: every worker died mid-generation", ErrMembership)
	}
	if c.reform || !c.failed.IsZero() && time.Since(c.failed) > failGrace {
		c.halt()
		return nil, nil
	}
	for _, m := range live {
		if !m.done {
			if time.Since(c.progress) > c.cfg.StepTimeout {
				c.cfg.Logf("gen %d: no step progress for %v, re-forming", c.gen, c.cfg.StepTimeout)
				c.halt()
			}
			return nil, nil
		}
	}
	hash := live[0].hash
	for _, m := range live[1:] {
		if m.hash != hash {
			return nil, fmt.Errorf("%w: gen %d hashes %q vs %q", ErrDesync, c.gen, hash, m.hash)
		}
	}
	c.trace("run_done", "hash", hash,
		"steps", strconv.Itoa(c.finalStep), "width", strconv.Itoa(len(live)))
	return &Result{Hash: hash, Gens: int(c.gen), Reforms: c.reforms, Steps: c.finalStep, Width: len(live)}, nil
}

// halt stops the current generation on every survivor.
func (c *Coordinator) halt() {
	c.phase, c.deadline = halting, time.Now().Add(c.cfg.StepTimeout)
	c.trace("halt")
	c.sendHalts()
}

// halted re-forms once every survivor is idle (acked, failed, done or
// dead). A member that has not gone idle within StepTimeout — the time a
// step may take to make progress — is dropped, as reapStale drops a
// silent one. The reform fails the run once MaxReforms of them in a row
// have passed without a new checkpoint.
func (c *Coordinator) halted() error {
	past := time.Now().After(c.deadline)
	for _, m := range c.live() {
		if m.idle {
			continue
		}
		if !past {
			return nil
		}
		c.lose(m, "halt", fmt.Sprintf("no halt acknowledgement within %v", c.cfg.StepTimeout))
	}
	c.reforms++
	c.sinceCkpt++
	if c.sinceCkpt > c.cfg.MaxReforms {
		return fmt.Errorf("%w: %d consecutive reforms stuck at checkpoint step %d",
			ErrTooManyReforms, c.sinceCkpt, c.ckptStep)
	}
	c.trace("reform", "reforms", strconv.Itoa(c.reforms))
	c.gather()
	return nil
}

// sendHalts asks every busy slotted member to halt the current generation.
func (c *Coordinator) sendHalts() {
	for _, m := range c.live() {
		if !m.idle {
			c.sendTo(m, ctrlMsg{Type: msgHalt, Gen: c.gen, Suspect: -1})
		}
	}
}

// isMember reports whether m is still part of the membership.
func (c *Coordinator) isMember(m *member) bool {
	for _, o := range c.members {
		if o == m {
			return true
		}
	}
	return false
}
