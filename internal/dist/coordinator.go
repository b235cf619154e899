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

	// Spawn, when non-nil, launches one worker process aimed at the
	// coordinator's address; it is called once per vacant slot while
	// gathering. Nil means workers join on their own (tests, manual runs).
	Spawn func() error

	HeartbeatTimeout time.Duration // silence before a worker is dead (0 = 2s)
	StepTimeout      time.Duration // training no-progress watchdog (0 = 60s)
	MemberWait       time.Duration // full-width wait before degrading (0 = 30s)
	MaxReforms       int           // reforms without a new checkpoint (0 = 5)
	Logf             func(format string, args ...any)

	// Tracer, when non-nil, receives one structured event per membership
	// lifecycle transition: gen_start, worker_lost, halt, reform, rejoin,
	// degraded, checkpoint and run_done. The records carry the generation
	// and identify workers by address and slot, so a fault-injection run's
	// recovery path can be asserted from the JSONL stream alone.
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

// Coordinator drives a fault-tolerant data-parallel run.
type Coordinator struct {
	cfg    CoordinatorConfig
	ln     net.Listener
	ev     chan event
	closed chan struct{} // run loop gone; unblocks event producers

	members []*member // join order; slots assigned from here
	gen     uint32
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
	return &Coordinator{cfg: cfg, ln: ln, ev: make(chan event, 64), closed: make(chan struct{})}, nil
}

// Addr returns the bound control address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// SetSpawn installs the worker spawner after construction — the spawner
// usually needs Addr, which only exists once NewCoordinator has bound the
// listener. Must be called before Run.
func (c *Coordinator) SetSpawn(spawn func() error) { c.cfg.Spawn = spawn }

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
// event path slotted it, so the rejoin trace event is emitted here.
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

// drop removes a dead member.
func (c *Coordinator) drop(m *member) {
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
// a generation, supervise it, and on any failure halt the survivors and
// re-form. It returns when every rank of a generation finishes with the
// same parameter hash, or with a named error.
func (c *Coordinator) Run() (*Result, error) {
	defer c.ln.Close()
	go c.accept()
	defer close(c.closed)
	defer c.stopAll()

	lastCkptStep := -1
	reformsSinceCkpt := 0
	reforms := 0

	for {
		width, err := c.gather()
		if err != nil {
			return nil, err
		}
		c.gen++
		live := c.live()
		members := make([]string, width)
		for rank, m := range live {
			members[rank] = m.addr
			m.idle, m.done, m.hash = false, false, ""
		}
		c.cfg.Logf("gen %d: starting width-%d ring %v", c.gen, width, members)
		c.trace("gen_start", "width", strconv.Itoa(width))
		for rank, m := range live {
			c.sendTo(m, ctrlMsg{Type: msgStart, Gen: c.gen, Rank: rank, Members: members, Spec: &c.cfg.Spec, Suspect: -1})
		}

		res, ckptStep, err := c.supervise(lastCkptStep)
		if ckptStep > lastCkptStep {
			lastCkptStep = ckptStep
			reformsSinceCkpt = 0
		}
		if err != nil {
			return nil, err
		}
		if res != nil {
			res.Gens = int(c.gen)
			res.Reforms = reforms
			c.trace("run_done", "hash", res.Hash,
				"steps", strconv.Itoa(res.Steps), "width", strconv.Itoa(res.Width))
			return res, nil
		}

		// The generation failed: halt every survivor, then re-form.
		reforms++
		reformsSinceCkpt++
		if reformsSinceCkpt > c.cfg.MaxReforms {
			return nil, fmt.Errorf("%w: %d consecutive reforms stuck at checkpoint step %d",
				ErrTooManyReforms, reformsSinceCkpt, lastCkptStep)
		}
		if err := c.haltAll(); err != nil {
			return nil, err
		}
		c.trace("reform", "reforms", strconv.Itoa(reforms))
	}
}

// gather waits for the membership: the full target width, or — once the
// member-wait budget runs out — a degraded width the global batch still
// shards over. Dead slots are respawned through the Spawn hook.
func (c *Coordinator) gather() (int, error) {
	deadline := time.Now().Add(c.cfg.MemberWait)
	spawned := 0
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.cfg.Spawn != nil {
			for len(c.members)+spawned < c.cfg.Width {
				if err := c.cfg.Spawn(); err != nil {
					return 0, fmt.Errorf("dist: spawn worker: %w", err)
				}
				spawned++
			}
		}
		if len(c.live()) >= c.cfg.Width {
			return c.cfg.Width, nil
		}
		if time.Now().After(deadline) {
			w := len(c.live())
			if w == 0 {
				return 0, fmt.Errorf("%w: no workers joined within %v", ErrMembership, c.cfg.MemberWait)
			}
			if c.cfg.Spec.GlobalBatch%w != 0 {
				return 0, fmt.Errorf("%w: degraded width %d cannot shard global batch %d",
					ErrMembership, w, c.cfg.Spec.GlobalBatch)
			}
			c.cfg.Logf("gen %d: degrading to width %d of %d", c.gen+1, w, c.cfg.Width)
			c.trace("degraded", "width", strconv.Itoa(w), "target", strconv.Itoa(c.cfg.Width))
			return w, nil
		}
		select {
		case ev := <-c.ev:
			if ev.join {
				c.members = append(c.members, ev.m)
				ev.m.lastSeen = time.Now()
				if ev.m.slot < 0 { // joins arrive unslotted
					c.assignSlots()
				}
				spawned-- // a join consumes an outstanding spawn, if any
				if spawned < 0 {
					spawned = 0
				}
				continue
			}
			c.handleCommon(ev)
		case <-tick.C:
			c.reapStale()
		}
	}
}

// supervise runs one generation's event loop. It returns (result, ckpt,
// nil) on full completion, (nil, ckpt, nil) when the generation failed and
// a reform is needed, and a terminal error otherwise.
func (c *Coordinator) supervise(ckptStep int) (*Result, int, error) {
	lastProgress := time.Now()
	finalStep := 0
	needReform := false
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		live := c.live()
		if len(live) == 0 {
			return nil, ckptStep, fmt.Errorf("%w: every worker died mid-generation", ErrMembership)
		}
		if needReform {
			return nil, ckptStep, nil
		}
		alldone := true
		for _, m := range live {
			if !m.done {
				alldone = false
				break
			}
		}
		if alldone {
			hash := live[0].hash
			for _, m := range live[1:] {
				if m.hash != hash {
					return nil, ckptStep, fmt.Errorf("%w: gen %d hashes %q vs %q",
						ErrDesync, c.gen, hash, m.hash)
				}
			}
			return &Result{Hash: hash, Steps: finalStep, Width: len(live)}, ckptStep, nil
		}

		select {
		case ev := <-c.ev:
			switch {
			case ev.join:
				c.members = append(c.members, ev.m)
				ev.m.lastSeen = time.Now()
				c.assignSlots()
				if ev.m.slot >= 0 {
					// An elastic rejoin with a free slot: fold it in.
					c.cfg.Logf("gen %d: worker %s rejoined, re-forming", c.gen, ev.m.addr)
					needReform = true
				}
			case ev.err != nil:
				if c.isMember(ev.m) {
					c.cfg.Logf("gen %d: worker %s (slot %d) died: %v", c.gen, ev.m.addr, ev.m.slot, ev.err)
					wasLive := ev.m.slot >= 0
					if wasLive {
						c.trace("worker_lost", "addr", ev.m.addr,
							"slot", strconv.Itoa(ev.m.slot), "cause", "link")
					}
					c.drop(ev.m)
					if wasLive {
						needReform = true
					}
				}
			default:
				if !c.isMember(ev.m) {
					continue
				}
				ev.m.lastSeen = time.Now()
				msg := ev.msg
				if msg.Type == msgCkpt && msg.Step > ckptStep {
					// Durable progress counts whatever generation sent it.
					ckptStep = msg.Step
					c.trace("checkpoint", "step", strconv.Itoa(msg.Step))
				}
				if msg.Gen != c.gen {
					continue // stale chatter from a previous generation
				}
				switch msg.Type {
				case msgStepDone:
					lastProgress = time.Now()
					if msg.Step >= finalStep {
						finalStep = msg.Step + 1
					}
				case msgCkpt:
					lastProgress = time.Now()
				case msgDone:
					ev.m.done, ev.m.idle, ev.m.hash = true, true, msg.Hash
					if msg.Step > finalStep {
						finalStep = msg.Step
					}
				case msgFail:
					c.cfg.Logf("gen %d: worker %s (rank slot %d) failed, suspect %d: %s",
						c.gen, ev.m.addr, ev.m.slot, msg.Suspect, msg.Err)
					c.trace("worker_fail", "addr", ev.m.addr,
						"slot", strconv.Itoa(ev.m.slot), "suspect", strconv.Itoa(msg.Suspect))
					ev.m.idle = true
					needReform = true
				}
			}
		case <-tick.C:
			if c.reapStale() {
				needReform = true
			}
			if time.Since(lastProgress) > c.cfg.StepTimeout {
				c.cfg.Logf("gen %d: no step progress for %v, re-forming", c.gen, c.cfg.StepTimeout)
				needReform = true
				lastProgress = time.Now()
			}
		}
	}
}

// haltAll stops the current generation on every survivor and waits until
// each is idle (acked, failed or dead). The halt is resent on every tick to
// each slotted member still busy, so none waits on a message that crossed a
// drop or rejoin; a member that has not acknowledged within StepTimeout —
// the time a step may take to make progress — is dropped, as reapStale
// drops a silent one.
func (c *Coordinator) haltAll() error {
	c.trace("halt")
	deadline := time.Now().Add(c.cfg.StepTimeout)
	c.sendHalts()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		settled := true
		for _, m := range c.live() {
			if !m.idle {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		select {
		case ev := <-c.ev:
			switch {
			case ev.join:
				c.members = append(c.members, ev.m)
				ev.m.lastSeen = time.Now()
				c.assignSlots()
			case ev.err != nil:
				if c.isMember(ev.m) {
					c.drop(ev.m)
				}
			default:
				if !c.isMember(ev.m) {
					continue
				}
				ev.m.lastSeen = time.Now()
				switch ev.msg.Type {
				case msgHaltAck, msgFail, msgDone:
					if ev.msg.Gen == c.gen || ev.msg.Type == msgHaltAck {
						ev.m.idle = true
					}
				}
			}
		case <-tick.C:
			c.reapStale()
			if time.Now().After(deadline) {
				for _, m := range c.live() {
					if !m.idle {
						c.cfg.Logf("gen %d: worker %s (slot %d) did not acknowledge the halt within %v, dropping",
							c.gen, m.addr, m.slot, c.cfg.StepTimeout)
						c.trace("worker_lost", "addr", m.addr,
							"slot", strconv.Itoa(m.slot), "cause", "halt")
						c.drop(m)
					}
				}
			}
			c.sendHalts()
		}
	}
}

// sendHalts asks every busy slotted member to halt the current generation.
func (c *Coordinator) sendHalts() {
	for _, m := range c.live() {
		if !m.idle {
			c.sendTo(m, ctrlMsg{Type: msgHalt, Gen: c.gen, Suspect: -1})
		}
	}
}

// handleCommon processes events that matter in every phase.
func (c *Coordinator) handleCommon(ev event) {
	if ev.err != nil {
		if c.isMember(ev.m) {
			c.drop(ev.m)
		}
		return
	}
	if c.isMember(ev.m) {
		ev.m.lastSeen = time.Now()
	}
}

// reapStale drops members whose heartbeats stopped; reports whether a
// slotted member was lost.
func (c *Coordinator) reapStale() bool {
	lost := false
	now := time.Now()
	for _, m := range append([]*member(nil), c.members...) {
		if now.Sub(m.lastSeen) > c.cfg.HeartbeatTimeout {
			c.cfg.Logf("gen %d: worker %s (slot %d) heartbeat stale, dropping", c.gen, m.addr, m.slot)
			if m.slot >= 0 {
				lost = true
				c.trace("worker_lost", "addr", m.addr,
					"slot", strconv.Itoa(m.slot), "cause", "heartbeat")
			}
			c.drop(m)
		}
	}
	return lost
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
