package allreduce

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// A Topology is one member's view of the wired ring: its intra-group ring
// link and — for group leaders — the leader ring link. With a single group
// it is the flat ring; with groupSize < width it is the paper's
// hierarchical layout (NVLink ring per node, InfiniBand ring across nodes).
// FormTopology wires the links over TCP between processes, LocalTopologies
// over channels inside one; the collectives below run unchanged over
// either, so both give bit-for-bit the same results.

// Named transport errors.
var (
	// ErrRingBroken wraps every collective failure: a peer died, timed out
	// or spoke the wrong protocol. Use Suspect to recover the likely
	// culprit's rank.
	ErrRingBroken = errors.New("allreduce: ring broken")
	// ErrFormTimeout reports that the membership could not be wired within
	// the formation budget.
	ErrFormTimeout = errors.New("allreduce: topology formation timed out")
	// ErrCodecMismatch reports that two ring peers were configured with
	// different gradient codecs. Both sides fail fast at the handshake —
	// a mixed-codec membership would desync silently mid-reduce otherwise.
	ErrCodecMismatch = errors.New("allreduce: gradient codec mismatch between ring peers")
)

// PeerError attributes a collective failure to a ring neighbour.
type PeerError struct {
	Rank int // global rank of the suspected peer
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("%v: peer rank %d: %v", ErrRingBroken, e.Rank, e.Err)
}

// Unwrap lets errors.Is(err, ErrRingBroken) and deadline checks see through.
func (e *PeerError) Unwrap() []error { return []error{ErrRingBroken, e.Err} }

// Suspect extracts the suspected peer rank from a collective error.
func Suspect(err error) (int, bool) {
	var pe *PeerError
	if errors.As(err, &pe) {
		return pe.Rank, true
	}
	return -1, false
}

// NetConfig tunes topology formation and the collectives' deadlines.
type NetConfig struct {
	Gen         uint32        // membership generation stamped on every frame
	OpTimeout   time.Duration // per-collective deadline (0 = none)
	FormTimeout time.Duration // formation budget (default 10s)
	MaxPayload  int           // frame payload bound (≤ 0: DefaultMaxPayload)
	// Codec compresses gradient chunk payloads on the wire (nil =
	// CodecNone, raw float32); it is one of the codec table's
	// (CodecByName, CodecByID). Every member must configure
	// the same codec: the handshake exchanges codec IDs and a mismatch
	// fails formation with ErrCodecMismatch on both sides.
	Codec Codec
	// Wrap, when non-nil, wraps every established link after the handshake —
	// the fault-injection hook (netsim.FaultConn). self and peer are global
	// ranks; the wrapped conn carries frames self→peer or peer→self
	// depending on link direction.
	Wrap func(self, peer int, c Conn) Conn
}

func (c NetConfig) withDefaults() NetConfig {
	if c.FormTimeout <= 0 {
		c.FormTimeout = 10 * time.Second
	}
	if c.Codec == nil {
		c.Codec = CodecNone
	}
	return c
}

// ringLink is one directed ring: send to next, receive from prev.
type ringLink struct {
	rank, n            int  // local index and ring width
	next, prev         Conn // nil when n == 1
	nextRank, prevRank int  // global ranks, for blame
}

// Topology is one worker's wired view of the membership.
type Topology struct {
	rank, n int
	cfg     NetConfig
	op      uint32

	cdc Codec         // negotiated gradient codec (never nil after formation)
	cm  *codecMetrics // cached metric children for cdc

	intra  *ringLink // ring within the group (nil when the group has 1 member)
	leader *ringLink // ring across group leaders (nil unless leader of >1 groups)

	numGroups int
	conns     []Conn
}

// Rank returns this worker's global rank.
func (t *Topology) Rank() int { return t.rank }

// Width returns the membership size.
func (t *Topology) Width() int { return t.n }

// Codec returns the gradient codec every member of this topology runs.
func (t *Topology) Codec() Codec { return t.cdc }

// Close tears down every link.
func (t *Topology) Close() {
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.conns = nil
	t.intra, t.leader = nil, nil
}

// linkSpec is one ring a member takes part in: the link role, the member's
// index and the ring's width within that ring, and the global ranks it
// sends to (next, the peer it dials) and receives from (prev, the peer it
// accepts).
type linkSpec struct {
	role         uint32
	local, width int
	next, prev   int
}

// layout places rank in an n-member membership: groupSize ≤ 0 or ≥ n is the
// flat ring; otherwise groups of groupSize consecutive ranks form
// intra-group rings (the last group may be short) and their leaders (ranks
// 0, groupSize, 2·groupSize, …) a leader ring. It returns the member's
// topology with no links wired yet and the rings it must wire.
func layout(rank, n, groupSize int, cfg NetConfig) (*Topology, []linkSpec) {
	if groupSize <= 0 || groupSize > n {
		groupSize = n
	}
	lo := (rank / groupSize) * groupSize
	gn := min(lo+groupSize, n) - lo
	local := rank - lo
	numGroups := (n + groupSize - 1) / groupSize
	t := &Topology{rank: rank, n: n, cfg: cfg, numGroups: numGroups, cdc: cfg.Codec, cm: codecMetricsFor(cfg.Codec)}

	var links []linkSpec
	if gn > 1 {
		links = append(links, linkSpec{RoleIntra, local, gn, lo + (local+1)%gn, lo + (local-1+gn)%gn})
	}
	if rank == lo && numGroups > 1 {
		li := rank / groupSize
		links = append(links, linkSpec{RoleLeader, li, numGroups,
			((li + 1) % numGroups) * groupSize, ((li - 1 + numGroups) % numGroups) * groupSize})
	}
	return t, links
}

// wire installs ring l over the established next/prev links, through the
// configured Wrap hook.
func (t *Topology) wire(l linkSpec, next, prev Conn) {
	if wrap := t.cfg.Wrap; wrap != nil {
		next, prev = wrap(t.rank, l.next, next), wrap(t.rank, l.prev, prev)
	}
	t.conns = append(t.conns, next, prev)
	rl := &ringLink{rank: l.local, n: l.width, next: next, prev: prev, nextRank: l.next, prevRank: l.prev}
	if l.role == RoleIntra {
		t.intra = rl
	} else {
		t.leader = rl
	}
}

// LocalTopologies builds all n members (n ≥ 1) of the layout FormTopology
// wires, linked inside this process: every ring link is a channel that
// passes frames by pointer, with no handshake, no deadlines and nothing
// counted in the allreduce_{tx,rx}_* wire metrics. The collectives are the
// same code as over TCP — chunking, accumulation order and codec — so the
// results are bit-for-bit those of n processes. Member r must run its
// collectives on its own goroutine, concurrently with the others.
func LocalTopologies(n, groupSize int, cfg NetConfig) []*Topology {
	cfg = cfg.withDefaults()
	type edge struct {
		role     uint32
		from, to int
	}
	links := map[edge]*memConn{}
	link := func(e edge) *memConn {
		if links[e] == nil {
			links[e] = newMemConn()
		}
		return links[e]
	}
	tops := make([]*Topology, n)
	for r := range tops {
		t, specs := layout(r, n, groupSize, cfg)
		for _, l := range specs {
			t.wire(l, link(edge{l.role, r, l.next}), link(edge{l.role, l.prev, r}))
		}
		tops[r] = t
	}
	return tops
}

// FormTopology wires this worker into the membership over TCP: members[r]
// is rank r's ring listen address, ln this worker's own listener
// (members[rank] must route to it). groupSize lays out the rings as in
// layout. Outbound links dial with retry/backoff — peers come up in
// arbitrary order — and both directions handshake with a
// generation-stamped hello, so stale connections from an earlier
// membership are rejected instead of corrupting the new ring.
func FormTopology(ln net.Listener, members []string, rank, groupSize int, cfg NetConfig) (*Topology, error) {
	cfg = cfg.withDefaults()
	n := len(members)
	if n == 0 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("allreduce: rank %d outside membership of %d", rank, n)
	}
	t, wants := layout(rank, n, groupSize, cfg)
	if len(wants) == 0 {
		return t, nil // a membership of one
	}

	deadline := time.Now().Add(cfg.FormTimeout)

	// Outbound dials run concurrently: send hello, await the acceptor's
	// hello-ack, retry the whole exchange on any failure.
	type dialRes struct {
		role uint32
		peer int
		conn Conn
		err  error
	}
	dialCh := make(chan dialRes, len(wants))
	for _, w := range wants {
		go func() {
			conn, err := dialRing(members[w.next], rank, w.next, w.role, cfg, deadline)
			dialCh <- dialRes{w.role, w.next, conn, err}
		}()
	}

	// Inbound accepts run here: route each hello to the matching expected
	// link, reject everything else (stale generations, unexpected peers).
	accepted := map[[2]uint32]Conn{} // {role, fromRank} → conn
	acceptErr := make(chan error, 1)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		need := map[[2]uint32]bool{}
		for _, w := range wants {
			need[[2]uint32{w.role, uint32(w.prev)}] = true
		}
		for len(need) > 0 {
			if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				d.SetDeadline(deadline)
			}
			raw, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("%w: accept: %w", ErrFormTimeout, err)
				return
			}
			conn := NewConn(raw, cfg.MaxPayload)
			raw.SetDeadline(time.Now().Add(2 * time.Second))
			hello, err := conn.Recv()
			if err != nil || hello.Type != FrameHello || hello.Gen != cfg.Gen {
				conn.Close()
				continue
			}
			key := [2]uint32{hello.Seq, hello.Step}
			if !need[key] {
				conn.Close()
				continue
			}
			if hello.Codec != cfg.Codec.ID() {
				// A ring peer configured with a different gradient codec:
				// answer with our codec so the dialer fails fast too, then
				// abort formation — a mixed-codec membership must never form.
				conn.Send(&Frame{Type: FrameHello, Gen: cfg.Gen, Step: uint32(rank), Seq: hello.Seq, Codec: cfg.Codec.ID()})
				conn.Close()
				acceptErr <- fmt.Errorf("%w: peer rank %d dialed with codec id %d, this rank runs %q (id %d)",
					ErrCodecMismatch, hello.Step, hello.Codec, cfg.Codec.Name(), cfg.Codec.ID())
				return
			}
			// Acknowledge so the dialer knows the link is accepted.
			if err := conn.Send(&Frame{Type: FrameHello, Gen: cfg.Gen, Step: uint32(rank), Seq: hello.Seq, Codec: cfg.Codec.ID()}); err != nil {
				conn.Close()
				continue
			}
			raw.SetDeadline(time.Time{})
			accepted[key] = conn
			delete(need, key)
		}
		acceptErr <- nil
	}()

	dialed := map[[2]uint32]Conn{} // {role, dialRank} → conn
	fail := func(err error) (*Topology, error) {
		for _, c := range dialed {
			c.Close()
		}
		// Unblock the acceptor if it is still waiting.
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now())
		}
		<-acceptDone
		for _, c := range accepted {
			c.Close()
		}
		return nil, err
	}
	for range wants {
		r := <-dialCh
		if r.err != nil {
			return fail(r.err)
		}
		dialed[[2]uint32{r.role, uint32(r.peer)}] = r.conn
	}
	if err := <-acceptErr; err != nil {
		return fail(err)
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}

	for _, w := range wants {
		t.wire(w, dialed[[2]uint32{w.role, uint32(w.next)}], accepted[[2]uint32{w.role, uint32(w.prev)}])
	}
	return t, nil
}

// dialRing establishes one outbound ring link: dial, hello, await ack. A
// codec mismatch in an otherwise-valid ack aborts immediately — retrying
// can never fix a configuration disagreement.
func dialRing(addr string, selfRank, peerRank int, role uint32, cfg NetConfig, deadline time.Time) (Conn, error) {
	backoff := 20 * time.Millisecond
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := Dial(addr, DialOptions{
			Timeout:    time.Until(deadline),
			MaxPayload: cfg.MaxPayload,
		})
		if err != nil {
			lastErr = err
			break
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		err = conn.Send(&Frame{Type: FrameHello, Gen: cfg.Gen, Step: uint32(selfRank), Seq: role, Codec: cfg.Codec.ID()})
		var ack *Frame
		if err == nil {
			ack, err = conn.Recv()
		}
		if err == nil && ack.Type == FrameHello && ack.Gen == cfg.Gen && int(ack.Step) == peerRank {
			if ack.Codec != cfg.Codec.ID() {
				conn.Close()
				return nil, fmt.Errorf("%w: rank %d runs codec id %d, this rank %q (id %d)",
					ErrCodecMismatch, peerRank, ack.Codec, cfg.Codec.Name(), cfg.Codec.ID())
			}
			conn.SetDeadline(time.Time{})
			return conn, nil
		}
		conn.Close()
		if err == nil {
			err = fmt.Errorf("allreduce: hello to rank %d rejected", peerRank)
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	if lastErr == nil {
		lastErr = ErrFormTimeout
	}
	return nil, fmt.Errorf("%w: ring link to rank %d: %w", ErrFormTimeout, peerRank, lastErr)
}

// armDeadline applies the per-op deadline to every link.
func (t *Topology) armDeadline() {
	var d time.Time
	if t.cfg.OpTimeout > 0 {
		d = time.Now().Add(t.cfg.OpTimeout)
	}
	for _, c := range t.conns {
		if c != nil {
			c.SetDeadline(d)
		}
	}
}

func (t *Topology) clearDeadline() {
	for _, c := range t.conns {
		if c != nil {
			c.SetDeadline(time.Time{})
		}
	}
}

// AllReduce sums buf elementwise across the membership, in place: a
// bucketed ring reduce within each group, a ring reduce across group
// leaders, then a broadcast of the global sum within each group. The
// accumulation order is a function of the layout alone, so every member —
// over any transport — ends with the same bits.
func (t *Topology) AllReduce(buf []float32) error {
	if t.n == 1 {
		return nil
	}
	t.op++
	t.armDeadline()
	defer t.clearDeadline()
	defer observeOp(opAllReduce, time.Now())

	// Phase 1: ring-reduce within the group.
	if t.intra != nil {
		if err := t.ringReduce(t.intra, buf, 1); err != nil {
			return err
		}
	}
	// Phase 2: ring-reduce across group leaders over the full buffer.
	if t.leader != nil {
		if err := t.ringReduce(t.leader, buf, 2); err != nil {
			return err
		}
	}
	// Phase 3: leaders broadcast the global sum within their group.
	switch {
	case t.numGroups == 1:
	case t.intra != nil:
		if err := t.ringBroadcastF32(t.intra, 0, buf, 3); err != nil {
			return err
		}
	case !t.cdc.Lossless():
		// A leader alone in its group broadcasts to nobody, but must still
		// hold what every other group decodes: the codec's rounding of the
		// sum, as each broadcast root adopts it.
		vals, err := t.cdc.Decode(t.cdc.Encode(buf))
		if err != nil {
			return fmt.Errorf("allreduce: self-requantize: %w", err)
		}
		copy(buf, vals)
	}
	return nil
}

// AllReduceAverage runs AllReduce and divides by the membership width: the
// averaged gradients synchronous SGD applies.
func (t *Topology) AllReduceAverage(buf []float32) error {
	if err := t.AllReduce(buf); err != nil {
		return err
	}
	inv := 1 / float32(t.n)
	for i := range buf {
		buf[i] *= inv
	}
	return nil
}

// GatherAll64 returns every member's float64 contribution ordered by global
// rank — identical on every member, so rank-ordered scalar reductions
// (mean loss across replicas) are deterministic and membership-wide.
func (t *Topology) GatherAll64(v float64) ([]float64, error) {
	if t.n == 1 {
		return []float64{v}, nil
	}
	t.op++
	t.armDeadline()
	defer t.clearDeadline()
	defer observeOp(opGather, time.Now())

	group := []float64{v}
	if t.intra != nil {
		lists, err := t.ringGatherLists(t.intra, []float64{v}, 1)
		if err != nil {
			return nil, err
		}
		group = group[:0]
		for _, l := range lists {
			group = append(group, l...)
		}
	}
	if t.numGroups == 1 {
		return group, nil
	}
	var full []float64
	if t.leader != nil {
		lists, err := t.ringGatherLists(t.leader, group, 2)
		if err != nil {
			return nil, err
		}
		for _, l := range lists {
			full = append(full, l...)
		}
	}
	if t.intra != nil {
		got, err := t.ringBroadcastList(t.intra, 0, full, 3)
		if err != nil {
			return nil, err
		}
		full = got
	}
	return full, nil
}

// seqOf packs (phase, step) into a frame's Seq for protocol validation.
func seqOf(phase uint32, s int) uint32 { return phase<<16 | uint32(s) }

func (t *Topology) frameErr(peer int, err error) error {
	return &PeerError{Rank: peer, Err: err}
}

// expect validates an incoming frame against the op's protocol position.
// Chunk frames must also carry the negotiated codec — the handshake makes a
// mismatch unreachable, but a check per frame keeps a corrupted or confused
// peer from feeding us payloads we would mis-decode.
func (t *Topology) expect(l *ringLink, f *Frame, typ FrameType, seq uint32) error {
	if f.Type != typ || f.Gen != t.cfg.Gen || f.Step != t.op || f.Seq != seq {
		return t.frameErr(l.prevRank, fmt.Errorf("protocol mismatch: got (type %d gen %d op %d seq %#x), want (type %d gen %d op %d seq %#x)",
			f.Type, f.Gen, f.Step, f.Seq, typ, t.cfg.Gen, t.op, seq))
	}
	if typ == FrameChunk && f.Codec != t.cdc.ID() {
		return t.frameErr(l.prevRank, fmt.Errorf("codec mismatch: frame carries codec id %d, topology runs %q (id %d)",
			f.Codec, t.cdc.Name(), t.cdc.ID()))
	}
	return nil
}

// encodeChunk runs the topology codec over one gradient chunk, recording the
// encoded (wire) and raw float32 byte counts plus encode time.
func (t *Topology) encodeChunk(vals []float32) []byte {
	start := time.Now()
	p := t.cdc.Encode(vals)
	t.cm.encode.ObserveDuration(time.Since(start))
	t.cm.payload.Add(uint64(len(p)))
	t.cm.raw.Add(uint64(4 * len(vals)))
	return p
}

// decodeChunk inverts encodeChunk, recording decode time.
func (t *Topology) decodeChunk(payload []byte) ([]float32, error) {
	start := time.Now()
	vals, err := t.cdc.Decode(payload)
	if err == nil {
		t.cm.decode.ObserveDuration(time.Since(start))
	}
	return vals, err
}

// countForward records the wire bytes of a chunk payload forwarded verbatim
// (no re-encode, so encodeChunk never saw it).
func (t *Topology) countForward(payloadLen, elems int) {
	t.cm.payload.Add(uint64(payloadLen))
	t.cm.raw.Add(uint64(4 * elems))
}

// sendAsync sends in a goroutine so a same-step send and recv cannot
// deadlock on full socket buffers (every peer sends before receiving).
func sendAsync(c Conn, f *Frame) chan error {
	ch := make(chan error, 1)
	go func() { ch <- c.Send(f) }()
	return ch
}

// ringReduce is the bucketed ring all-reduce NCCL runs across GPUs: n−1
// scatter-reduce steps then n−1 all-gather steps, each moving one chunk
// (chunkBounds) to the next member. After scatter-reduce step s, member r
// has accumulated s+1 contributions into chunk (r−s−1) mod n. With the
// identity codec the wire bytes are byte-for-byte the version-1 format's
// payloads.
//
// Under a lossy codec, cross-rank bit-identity holds because the all-gather
// never re-encodes: the rank that completes a chunk encodes its final sum
// once (step 0) and immediately adopts the decode of its own encoding; every
// later step forwards the received payload verbatim. All n members therefore
// decode the exact same bytes per chunk.
func (t *Topology) ringReduce(l *ringLink, buf []float32, phase uint32) error {
	n := l.n
	size := len(buf)
	cdc := t.cdc.ID()
	for s := 0; s < n-1; s++ {
		sendChunk := (l.rank - s + n) % n
		lo, hi := chunkBounds(size, n, sendChunk)
		seq := seqOf(phase, s)
		sent := sendAsync(l.next, &Frame{Type: FrameChunk, Gen: t.cfg.Gen, Step: t.op, Seq: seq, Codec: cdc, Payload: t.encodeChunk(buf[lo:hi])})
		in, err := l.prev.Recv()
		if err != nil {
			return t.frameErr(l.prevRank, err)
		}
		if err := t.expect(l, in, FrameChunk, seq); err != nil {
			return err
		}
		recvChunk := (l.rank - s - 1 + n) % n
		rlo, rhi := chunkBounds(size, n, recvChunk)
		vals, err := t.decodeChunk(in.Payload)
		if err != nil {
			return t.frameErr(l.prevRank, err)
		}
		if len(vals) != rhi-rlo {
			return t.frameErr(l.prevRank, fmt.Errorf("chunk size %d, want %d", len(vals), rhi-rlo))
		}
		for i, v := range vals {
			buf[rlo+i] += v
		}
		if err := <-sent; err != nil {
			return t.frameErr(l.nextRank, err)
		}
	}
	var fwd []byte // payload received last step, forwarded verbatim this step
	for s := 0; s < n-1; s++ {
		sendChunk := (l.rank + 1 - s + n) % n
		lo, hi := chunkBounds(size, n, sendChunk)
		seq := seqOf(phase, n-1+s)
		var payload []byte
		if s == 0 {
			// This rank just completed chunk sendChunk: encode the final sum
			// and adopt our own decode so we hold the same bits everyone else
			// will decode from this payload.
			payload = t.encodeChunk(buf[lo:hi])
			if !t.cdc.Lossless() {
				vals, err := t.decodeChunk(payload)
				if err != nil {
					return fmt.Errorf("allreduce: self-requantize: %w", err)
				}
				copy(buf[lo:hi], vals)
			}
		} else {
			payload = fwd
			t.countForward(len(payload), hi-lo)
		}
		sent := sendAsync(l.next, &Frame{Type: FrameChunk, Gen: t.cfg.Gen, Step: t.op, Seq: seq, Codec: cdc, Payload: payload})
		in, err := l.prev.Recv()
		if err != nil {
			return t.frameErr(l.prevRank, err)
		}
		if err := t.expect(l, in, FrameChunk, seq); err != nil {
			return err
		}
		recvChunk := (l.rank - s + n) % n
		rlo, rhi := chunkBounds(size, n, recvChunk)
		vals, err := t.decodeChunk(in.Payload)
		if err != nil {
			return t.frameErr(l.prevRank, err)
		}
		if len(vals) != rhi-rlo {
			return t.frameErr(l.prevRank, fmt.Errorf("chunk size %d, want %d", len(vals), rhi-rlo))
		}
		copy(buf[rlo:rhi], vals)
		fwd = in.Payload
		if err := <-sent; err != nil {
			return t.frameErr(l.nextRank, err)
		}
	}
	return nil
}

// ringBroadcastF32 circulates root's full buffer around the ring; every
// non-root member overwrites its buffer with a bitwise copy. Under a lossy
// codec the root encodes once and adopts its own decode, and forwards carry
// the payload verbatim — so "bitwise copy" still holds, of the requantized
// buffer.
func (t *Topology) ringBroadcastF32(l *ringLink, root int, buf []float32, phase uint32) error {
	seq := seqOf(phase, 0)
	if l.rank == root {
		payload := t.encodeChunk(buf)
		if !t.cdc.Lossless() {
			vals, err := t.decodeChunk(payload)
			if err != nil {
				return fmt.Errorf("allreduce: broadcast self-requantize: %w", err)
			}
			copy(buf, vals)
		}
		if err := l.next.Send(&Frame{Type: FrameChunk, Gen: t.cfg.Gen, Step: t.op, Seq: seq, Codec: t.cdc.ID(), Payload: payload}); err != nil {
			return t.frameErr(l.nextRank, err)
		}
		return nil
	}
	in, err := l.prev.Recv()
	if err != nil {
		return t.frameErr(l.prevRank, err)
	}
	if err := t.expect(l, in, FrameChunk, seq); err != nil {
		return err
	}
	vals, err := t.decodeChunk(in.Payload)
	if err != nil {
		return t.frameErr(l.prevRank, err)
	}
	if len(vals) != len(buf) {
		return t.frameErr(l.prevRank, fmt.Errorf("broadcast size %d, want %d", len(vals), len(buf)))
	}
	copy(buf, vals)
	if (l.rank+1)%l.n != root {
		t.countForward(len(in.Payload), len(buf))
		if err := l.next.Send(in); err != nil {
			return t.frameErr(l.nextRank, err)
		}
	}
	return nil
}

// ringGatherLists circulates every member's float64 list around the ring;
// the result is indexed by local rank and identical on every member.
func (t *Topology) ringGatherLists(l *ringLink, own []float64, phase uint32) ([][]float64, error) {
	n := l.n
	lists := make([][]float64, n)
	lists[l.rank] = own
	for s := 0; s < n-1; s++ {
		sendIdx := (l.rank - s + n) % n
		seq := seqOf(phase, s)
		sent := sendAsync(l.next, &Frame{Type: FrameScalars, Gen: t.cfg.Gen, Step: t.op, Seq: seq, Payload: Float64Bytes(lists[sendIdx])})
		in, err := l.prev.Recv()
		if err != nil {
			return nil, t.frameErr(l.prevRank, err)
		}
		if err := t.expect(l, in, FrameScalars, seq); err != nil {
			return nil, err
		}
		vals, err := BytesFloat64(in.Payload)
		if err != nil {
			return nil, t.frameErr(l.prevRank, err)
		}
		lists[(l.rank-s-1+n)%n] = vals
		if err := <-sent; err != nil {
			return nil, t.frameErr(l.nextRank, err)
		}
	}
	return lists, nil
}

// ringBroadcastList circulates root's float64 list around the ring.
func (t *Topology) ringBroadcastList(l *ringLink, root int, vals []float64, phase uint32) ([]float64, error) {
	seq := seqOf(phase, 0)
	if l.rank == root {
		if err := l.next.Send(&Frame{Type: FrameScalars, Gen: t.cfg.Gen, Step: t.op, Seq: seq, Payload: Float64Bytes(vals)}); err != nil {
			return nil, t.frameErr(l.nextRank, err)
		}
		return vals, nil
	}
	in, err := l.prev.Recv()
	if err != nil {
		return nil, t.frameErr(l.prevRank, err)
	}
	if err := t.expect(l, in, FrameScalars, seq); err != nil {
		return nil, err
	}
	got, err := BytesFloat64(in.Payload)
	if err != nil {
		return nil, t.frameErr(l.prevRank, err)
	}
	if (l.rank+1)%l.n != root {
		if err := l.next.Send(in); err != nil {
			return nil, t.frameErr(l.nextRank, err)
		}
	}
	return got, nil
}
