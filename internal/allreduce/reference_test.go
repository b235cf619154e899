package allreduce

import (
	"fmt"
	"sync"
)

// The reference reductions: the original in-process ring over shared
// buffers, one goroutine per replica exchanging chunks over channels, and
// the two-level reduction built from it. They are independent of Topology,
// Conn and Codec, and the topology tests hold every transport to them bit
// for bit.

// Ring performs an in-place ring all-reduce: after it returns every buffer
// holds the elementwise sum of all input buffers. Workers run concurrently,
// one goroutine per replica, exchanging chunks over channels exactly like
// the bucketed NCCL ring: n−1 scatter-reduce steps followed by n−1
// all-gather steps, each moving 1/n of the buffer.
func Ring(bufs [][]float32) error {
	if err := validate(bufs); err != nil {
		return err
	}
	n := len(bufs)
	if n == 1 {
		return nil
	}
	size := len(bufs[0])

	// links[i] carries chunks from worker i to worker (i+1) mod n.
	links := make([]chan []float32, n)
	for i := range links {
		links[i] = make(chan []float32, 1)
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			buf := bufs[w]
			prev := links[(w-1+n)%n]

			// Scatter-reduce: after step s, worker w has accumulated
			// s+1 contributions into chunk (w-s+n)%n.
			for s := 0; s < n-1; s++ {
				sendChunk := (w - s + n) % n
				lo, hi := chunkBounds(size, n, sendChunk)
				out := make([]float32, hi-lo)
				copy(out, buf[lo:hi])
				links[w] <- out

				in := <-prev
				recvChunk := (w - s - 1 + n) % n
				rlo, rhi := chunkBounds(size, n, recvChunk)
				if len(in) != rhi-rlo {
					panic("allreduce: chunk size mismatch")
				}
				for i := range in {
					buf[rlo+i] += in[i]
				}
			}

			// All-gather: circulate the fully reduced chunks.
			for s := 0; s < n-1; s++ {
				sendChunk := (w + 1 - s + n) % n
				lo, hi := chunkBounds(size, n, sendChunk)
				out := make([]float32, hi-lo)
				copy(out, buf[lo:hi])
				links[w] <- out

				in := <-prev
				recvChunk := (w - s + n) % n
				rlo, rhi := chunkBounds(size, n, recvChunk)
				copy(buf[rlo:rhi], in)
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// Hierarchical performs a two-level all-reduce mirroring the paper's
// deployment: a ring within each node group (Distributed TensorFlow over
// NVLink), then a ring across group leaders (Ray.SGD over InfiniBand), then
// an intra-group broadcast. After it returns every buffer holds the global
// elementwise sum. groupSize is the number of replicas per node.
func Hierarchical(bufs [][]float32, groupSize int) error {
	if err := validate(bufs); err != nil {
		return err
	}
	if groupSize < 1 {
		return fmt.Errorf("allreduce: groupSize must be ≥ 1, got %d", groupSize)
	}
	n := len(bufs)
	if n == 1 {
		return nil
	}

	// Level 1: reduce within each group.
	var leaders [][]float32
	for lo := 0; lo < n; lo += groupSize {
		hi := lo + groupSize
		if hi > n {
			hi = n
		}
		group := bufs[lo:hi]
		if err := Ring(group); err != nil {
			return err
		}
		leaders = append(leaders, group[0])
	}

	// Level 2: reduce across group leaders.
	if len(leaders) > 1 {
		if err := Ring(leaders); err != nil {
			return err
		}
	}

	// Level 3: broadcast the global sum within each group.
	for lo := 0; lo < n; lo += groupSize {
		hi := lo + groupSize
		if hi > n {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			copy(bufs[i], bufs[lo])
		}
	}
	return nil
}
