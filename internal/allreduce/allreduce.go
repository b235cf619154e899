// Package allreduce implements the gradient collectives of the
// data-parallel path: one ring all-reduce (the algorithm NCCL runs across
// GPUs), flat or hierarchical — a ring within each node group, a ring
// across group leaders, a broadcast back — executed by every member over
// its Topology's links. A link is any Conn: framed TCP between processes
// (FormTopology) or a channel inside one (LocalTopologies), so the
// multi-process workers and the in-process mirrored trainer run the same
// code with the same accumulation order. reference_test.go keeps a
// channel-based Ring and Hierarchical that reduce a slice of buffers
// directly, as the bit-for-bit oracle the topology tests hold both
// transports to.
package allreduce

import (
	"errors"
	"fmt"
	"sync"
)

// chunkBounds returns the [lo, hi) range of chunk c when a buffer of length
// n is split into parts chunks (earlier chunks take the remainder).
func chunkBounds(n, parts, c int) (int, int) {
	base := n / parts
	rem := n % parts
	lo := c*base + min(c, rem)
	size := base
	if c < rem {
		size++
	}
	return lo, lo + size
}

func validate(bufs [][]float32) error {
	if len(bufs) == 0 {
		return fmt.Errorf("allreduce: no buffers")
	}
	n := len(bufs[0])
	for i, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("allreduce: buffer %d has length %d, want %d", i, len(b), n)
		}
	}
	return nil
}

// RingAverage averages equal-length buffers elementwise in place over a flat
// in-process ring, one LocalTopologies member per buffer: every buffer ends
// holding the mean, bit-for-bit what the same ranks compute over TCP.
func RingAverage(bufs [][]float32) error {
	if err := validate(bufs); err != nil {
		return err
	}
	errs := make([]error, len(bufs))
	var wg sync.WaitGroup
	for r, tp := range LocalTopologies(len(bufs), 0, NetConfig{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = tp.AllReduceAverage(bufs[r])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
