package allreduce

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Conn is one directed ring link: framed send/recv with per-operation
// deadlines. The TCP implementation below links processes, memConn links
// the members of LocalTopologies; netsim wraps a Conn to inject faults
// deterministically.
type Conn interface {
	Send(f *Frame) error
	Recv() (*Frame, error)
	// SetDeadline bounds every pending and future Send/Recv; the zero time
	// clears it. Collectives arm it once per op.
	SetDeadline(t time.Time) error
	Close() error
}

// tcpConn frames a net.Conn with buffered I/O.
type tcpConn struct {
	c          net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	maxPayload int
}

// NewConn wraps an established stream connection as a framed Conn.
// maxPayload ≤ 0 means DefaultMaxPayload.
func NewConn(c net.Conn, maxPayload int) Conn {
	return &tcpConn{
		c:          c,
		br:         bufio.NewReaderSize(c, 64<<10),
		bw:         bufio.NewWriterSize(c, 64<<10),
		maxPayload: maxPayload,
	}
}

func (t *tcpConn) Send(f *Frame) error {
	if err := EncodeFrame(t.bw, f); err != nil {
		return err
	}
	if err := t.bw.Flush(); err != nil {
		return err
	}
	wireTx.Add(uint64(headerSize + len(f.Payload)))
	wireTxFrames.Inc()
	return nil
}

func (t *tcpConn) Recv() (*Frame, error) {
	f, err := DecodeFrame(t.br, t.maxPayload)
	if err != nil {
		return nil, err
	}
	wireRx.Add(uint64(headerSize + len(f.Payload)))
	wireRxFrames.Inc()
	return f, nil
}

func (t *tcpConn) SetDeadline(d time.Time) error { return t.c.SetDeadline(d) }

func (t *tcpConn) Close() error { return t.c.Close() }

// memConn is an in-process ring link: frames pass by pointer over a
// one-slot channel — never serialized, no deadlines, nothing counted in
// the wire metrics. The same memConn is the sender's next and
// the receiver's prev; collectives never mutate a frame once sent, so
// forwarding one by pointer is safe. Close unblocks both ends.
type memConn struct {
	ch     chan *Frame
	closed chan struct{}
	once   sync.Once
}

func newMemConn() *memConn {
	return &memConn{ch: make(chan *Frame, 1), closed: make(chan struct{})}
}

func (m *memConn) Send(f *Frame) error {
	select {
	case m.ch <- f:
		return nil
	case <-m.closed:
		return net.ErrClosed
	}
}

func (m *memConn) Recv() (*Frame, error) {
	select {
	case f := <-m.ch:
		return f, nil
	case <-m.closed:
		return nil, net.ErrClosed
	}
}

func (m *memConn) SetDeadline(time.Time) error { return nil }

func (m *memConn) Close() error {
	m.once.Do(func() { close(m.closed) })
	return nil
}

// IsTimeout reports whether err is a deadline expiry (directly, as a net
// timeout, or wrapped inside a frame decode error).
func IsTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// DialOptions tunes Dial's retry loop.
type DialOptions struct {
	Timeout    time.Duration // overall budget (default 10s)
	Backoff    time.Duration // first retry delay, doubling per attempt (default 20ms)
	MaxBackoff time.Duration // backoff ceiling (default 500ms)
	MaxPayload int           // frame payload bound (≤ 0: DefaultMaxPayload)
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 20 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	return o
}

// Dial connects to a ring peer with retry and exponential backoff: during
// membership formation peers come up in arbitrary order, so connection
// refusals and resets are expected transients, not failures. The returned
// error wraps the last attempt's cause once the budget is exhausted.
func Dial(addr string, opts DialOptions) (Conn, error) {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.Timeout)
	backoff := opts.Backoff
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		c, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return NewConn(c, opts.MaxPayload), nil
		}
		lastErr = err
		dialRetries.Inc()
		time.Sleep(backoff)
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
	return nil, fmt.Errorf("allreduce: dial %s: %w", addr, lastErr)
}
