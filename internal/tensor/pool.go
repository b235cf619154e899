package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch buffers.
//
// The convolution layers need large transient float32 buffers on every
// layer invocation: zero-haloed activation copies, gradient columns, and the
// per-worker packing panels inside the GEMM. Allocating them per call churns
// the allocator at tens of megabytes per training step, so the package keeps
// a process-wide, size-bucketed pool: buffers are rounded up to a
// power-of-two capacity class and recycled through a sync.Pool per class.
// After one warm-up step a steady-state training step performs zero fresh
// scratch allocations (asserted by the unet scratch-pool test).
//
// The pool is safe for concurrent use from any goroutine — mirrored
// replicas, experiment-parallel trials and the GEMM workers all share it.

const (
	// minScratchBits is the smallest capacity class, 1<<minScratchBits
	// floats; requests below it are rounded up so tiny buffers recycle too.
	minScratchBits = 6
	// maxScratchBits is the largest capacity class, 1<<maxScratchBits
	// floats (1 GiB); larger requests fall back to plain allocation.
	maxScratchBits = 28
)

var scratchPools [maxScratchBits - minScratchBits + 1]sync.Pool

// scratchCounters tracks pool traffic; Allocs is what the steady-state
// tests watch.
var scratchCounters struct {
	gets   atomic.Uint64
	puts   atomic.Uint64
	allocs atomic.Uint64
}

// ScratchStats is a snapshot of the scratch-pool counters.
type ScratchStats struct {
	Gets   uint64 // GetScratch calls
	Puts   uint64 // PutScratch calls that recycled a buffer
	Allocs uint64 // GetScratch calls that hit the allocator
}

// ScratchStatsSnapshot returns the current pool counters.
func ScratchStatsSnapshot() ScratchStats {
	return ScratchStats{
		Gets:   scratchCounters.gets.Load(),
		Puts:   scratchCounters.puts.Load(),
		Allocs: scratchCounters.allocs.Load(),
	}
}

// scratchClass returns the pool index and capacity for a request of n
// floats, or (-1, 0) if n is above the largest class.
func scratchClass(n int) (class, size int) {
	b := bits.Len(uint(n - 1))
	if b < minScratchBits {
		b = minScratchBits
	}
	if b > maxScratchBits {
		return -1, 0
	}
	return b - minScratchBits, 1 << b
}

// GetScratch returns a []float32 of length n from the pool, allocating only
// when no pooled buffer of the right class is available. The contents are
// undefined — callers that need zeros must clear it. Return the buffer with
// PutScratch when done.
func GetScratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	scratchCounters.gets.Add(1)
	class, size := scratchClass(n)
	if class < 0 {
		scratchCounters.allocs.Add(1)
		scratchClassGets[numScratchClasses].Inc()
		scratchClassAllocs[numScratchClasses].Inc()
		scratchAllocBytes.Add(uint64(n) * 4)
		return make([]float32, n)
	}
	scratchClassGets[class].Inc()
	if p, _ := scratchPools[class].Get().(*[]float32); p != nil {
		return (*p)[:n]
	}
	scratchCounters.allocs.Add(1)
	scratchClassAllocs[class].Inc()
	scratchAllocBytes.Add(uint64(size) * 4)
	return make([]float32, size)[:n]
}

// NewScratch returns a tensor whose backing slice comes from the scratch
// pool. The contents are UNDEFINED — callers must fully write every element
// before reading (the inference fast-path kernels do). Return the tensor
// with Recycle when it is no longer referenced anywhere; like GetScratch
// buffers, an un-recycled tensor is simply collected by the GC.
func NewScratch(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    GetScratch(n),
	}
}

// Recycle returns a tensor's backing slice to the scratch pool. The tensor
// — and every view sharing its data, e.g. from Reshape, View or Slice —
// must not be used afterwards. Recycling a tensor whose backing was not
// pool-allocated is safe: buffers outside the pool's capacity classes are
// dropped. Recycling a View/Slice window is a no-op (pooling a mid-buffer
// window would alias later GetScratch results); recycle the owner instead.
func Recycle(t *Tensor) {
	if t == nil {
		return
	}
	if t.view {
		t.data = nil
		return
	}
	PutScratch(t.data)
	t.data = nil
}

// PutScratch returns a buffer obtained from GetScratch to the pool. Buffers
// whose capacity is not one of the pool's classes (e.g. plain slices or
// oversized fallback allocations) are dropped for the garbage collector.
// The caller must not retain the slice after the call.
func PutScratch(buf []float32) {
	c := cap(buf)
	if c == 0 {
		return
	}
	class, size := scratchClass(c)
	if class < 0 || size != c {
		return
	}
	scratchCounters.puts.Add(1)
	full := buf[:c]
	scratchPools[class].Put(&full)
}
