package tensor

import "sync/atomic"

// Workspace is call-scoped scratch for an owner that runs one call at a
// time — a layer, or a network whose layers all share one: the halo copies,
// packed operands and partial sums a pass needs only while it runs. Take
// hands out floats from one backing slice; a Mark / Release pair gives them
// back in stack order. A call that outgrows the backing gets its overflow
// allocated separately, and when the outermost call releases, the backing is
// laid out again at the high-water mark, so only the first call at a new
// shape allocates: a steady state allocates nothing, by construction, at any
// GOMAXPROCS and whenever the collector runs.
//
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; a parallel kernel takes one slice per worker slot before it forks.
type Workspace struct {
	buf  []float32 // backing, laid out at the high-water mark
	top  int       // floats of buf taken
	used int       // floats taken, overflow included
	peak int       // the largest used since buf was laid out
}

// Mark is a workspace position that Release returns to.
type Mark struct{ top, used int }

// Mark returns the current position; Release(m) gives back everything taken
// after it.
func (w *Workspace) Mark() Mark { return Mark{w.top, w.used} }

// Take returns n floats with undefined contents — the caller must write
// every element before reading it — valid until the Release of a Mark taken
// before it.
func (w *Workspace) Take(n int) []float32 {
	if n <= 0 {
		return nil
	}
	workspaceTakes.Add(1)
	w.used += n
	w.peak = max(w.peak, w.used)
	if w.top+n <= len(w.buf) {
		s := w.buf[w.top : w.top+n : w.top+n]
		w.top += n
		return s
	}
	workspaceAllocs.Add(1)
	workspaceAllocBytes.Add(uint64(n) * 4)
	return make([]float32, n)
}

// Release gives back everything taken since m. When that empties the
// workspace and a call outgrew the backing, the backing is laid out again
// at the high-water mark.
func (w *Workspace) Release(m Mark) {
	w.top, w.used = m.top, m.used
	if w.used == 0 && w.peak > len(w.buf) {
		w.buf = make([]float32, w.peak)
		workspaceAllocBytes.Add(uint64(w.peak) * 4)
	}
}

// workspaceTakes and workspaceAllocs count, process-wide, the takes of every
// workspace and those that hit the allocator.
var workspaceTakes, workspaceAllocs atomic.Uint64

// ScratchStats is a snapshot of the process-wide workspace counters.
type ScratchStats struct {
	Gets   uint64 // Workspace.Take calls
	Allocs uint64 // takes that outgrew their backing and hit the allocator
}

// ScratchStatsSnapshot returns the current workspace counters.
func ScratchStatsSnapshot() ScratchStats {
	return ScratchStats{Gets: workspaceTakes.Load(), Allocs: workspaceAllocs.Load()}
}

// Recycle does nothing: every buffer has an owner that reuses it — a
// Workspace, an Owned or the garbage collector — so there is nothing to hand
// back. The benchmark harness still calls it.
func Recycle(*Tensor) {}
