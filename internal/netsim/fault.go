// Package netsim injects network faults into the real TCP transport. A
// Fault wraps an allreduce.Conn and perturbs it — added delay and seeded
// jitter, hard connection drops after a fixed frame count, one-directional
// partitions, slow-worker behaviour — so every transport failure mode has a
// reproducible test without touching real network infrastructure.
package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/allreduce"
)

// ErrInjectedDrop is the error surfaced by a connection the injector killed.
var ErrInjectedDrop = errors.New("netsim: injected connection drop")

// Fault describes the perturbation applied to one wrapped connection.
// The zero value is a transparent pass-through.
type Fault struct {
	// Delay is added before every frame is forwarded, in each direction.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter),
	// drawn from a generator seeded with Seed — deterministic per conn.
	Jitter time.Duration
	Seed   int64
	// DropAfterSends kills the connection when the (1-based) n-th send is
	// attempted: the frame is not delivered, the underlying conn closes and
	// every later operation fails with ErrInjectedDrop. 0 disables.
	DropAfterSends int
	// DropAfterRecvs does the same on the receive side. 0 disables.
	DropAfterRecvs int
	// PartitionSend silently swallows every outgoing frame — the classic
	// one-way partition: the peer sees a live connection that never talks,
	// and times out on its per-op deadline.
	PartitionSend bool
	// PartitionRecv discards every incoming frame, blocking until the
	// deadline fires — the mirror image of PartitionSend.
	PartitionRecv bool
}

// FaultConn wraps a transport connection with an injected fault.
type FaultConn struct {
	inner allreduce.Conn
	fault Fault

	mu           sync.Mutex
	rng          *rand.Rand
	sends, recvs int
	dropped      bool
}

// WrapConn applies a fault to a connection. Shapeless faults (zero value)
// still wrap, so tests can toggle scenarios from one table.
func WrapConn(c allreduce.Conn, f Fault) *FaultConn {
	return &FaultConn{inner: c, fault: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// delay sleeps the configured fixed delay plus seeded jitter.
func (f *FaultConn) delay() {
	d := f.fault.Delay
	if f.fault.Jitter > 0 {
		f.mu.Lock()
		d += time.Duration(f.rng.Int63n(int64(f.fault.Jitter)))
		f.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

func (f *FaultConn) Send(fr *allreduce.Frame) error {
	f.mu.Lock()
	if f.dropped {
		f.mu.Unlock()
		return ErrInjectedDrop
	}
	f.sends++
	if f.fault.DropAfterSends > 0 && f.sends >= f.fault.DropAfterSends {
		f.dropped = true
		f.mu.Unlock()
		f.inner.Close()
		return ErrInjectedDrop
	}
	f.mu.Unlock()
	f.delay()
	if f.fault.PartitionSend {
		return nil // swallowed: the peer never sees it
	}
	return f.inner.Send(fr)
}

func (f *FaultConn) Recv() (*allreduce.Frame, error) {
	for {
		f.mu.Lock()
		if f.dropped {
			f.mu.Unlock()
			return nil, ErrInjectedDrop
		}
		f.recvs++
		if f.fault.DropAfterRecvs > 0 && f.recvs >= f.fault.DropAfterRecvs {
			f.dropped = true
			f.mu.Unlock()
			f.inner.Close()
			return nil, ErrInjectedDrop
		}
		f.mu.Unlock()
		fr, err := f.inner.Recv()
		if err != nil {
			return nil, err
		}
		f.delay()
		if f.fault.PartitionRecv {
			continue // discard and keep waiting until the deadline fires
		}
		return fr, nil
	}
}

func (f *FaultConn) SetDeadline(t time.Time) error { return f.inner.SetDeadline(t) }

func (f *FaultConn) Close() error { return f.inner.Close() }
