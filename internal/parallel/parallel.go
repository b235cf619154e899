// Package parallel is the multi-core compute engine underneath the nn
// kernels: a fork-join loop that partitions index ranges across a
// configurable worker budget. The budget defaults to GOMAXPROCS and can be
// overridden globally (SetDefaultWorkers, or the REPRO_WORKERS environment
// variable) or per call (ForWorkers), so higher layers — one mirrored
// replica per simulated GPU, several trials per tuning run — can divide the
// machine instead of oversubscribing it.
//
// The calling goroutine is always worker 0; the others are resident helper
// goroutines, started the first time a budget needs them and kept for the
// life of the process (the pool grows to the largest effective budget ever
// requested, minus one, and never shrinks). A call claims free helpers,
// hands them a job, runs chunks itself and then waits for the helpers that
// started. Between jobs a helper, and a caller waiting for its helpers,
// polls for a short fixed window (spinWindow) before parking on a channel,
// so an idle process burns no CPU. Polling happens only when
// GOMAXPROCS > 1.
//
// A training step is about 160 such calls (a bench_net step at 16³ and two
// workers: 132 that fork and 27 on one worker) with serial stretches between
// them, and chunks of work, some longer than spinWindow, so a helper — or a
// caller waiting for a helper's last chunk — would park and need a
// scheduler wake-up several times a step. A caller that runs a step on more
// than one worker therefore opens a step scope (BeginStep … EndStep): while
// any scope is open, an idle helper and a waiting caller keep polling,
// yielding the processor between checks, instead of parking. Outside a
// scope nothing changes, so callers at a budget of one — which never hand
// work to a helper — and multi-worker calls outside a step spin no longer
// than spinWindow.
//
// Helpers are shared by every caller in the process. When concurrent
// callers — mirrored replicas, experiment-parallel trials, serving replicas
// — ask for more helpers than are free, a call runs with the helpers it
// could claim, down to none at all: the budget is an upper bound capped by
// the free helpers, and concurrent callers share one pool instead of each
// adding goroutines of its own.
//
// The partition of [0, n) into chunks depends only on n and grain, never on
// the worker count, the helpers claimed or scheduling order, so kernels that
// write disjoint chunks are bit-for-bit deterministic for any budget. Each
// worker owns a contiguous range of a call's chunks, which it drains before
// it steals from the others; kernels split their work sample-major, so at a
// batch of one sample per worker each sample stays in one core's cache.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// EnvWorkers is the environment variable consulted at startup for the
// default worker budget (a positive integer; anything else is ignored).
const EnvWorkers = "REPRO_WORKERS"

// spinWindow is how long an idle helper polls for its next job, and a
// caller polls for its helpers to finish, before parking outside a step
// scope. It covers the short serial glue between two kernel calls, so a
// helper is still polling when the next call hands it work; a parked helper
// costs a scheduler wake-up of several microseconds instead.
const spinWindow = 100 * time.Microsecond

var defaultWorkers atomic.Int64

// scopes counts the step scopes open in the process.
var scopes atomic.Int32

// forks counts calls that handed work to at least one helper, and parks the
// times a helper stopped polling and parked: with both, a profile of a
// training step shows how often its helpers had to be woken. steals counts
// the forks in which a worker ran a chunk of another worker's range.
var (
	forks = telemetry.Default().Counter("parallel_forks_total",
		"ForWorkers calls that handed work to at least one helper")
	parks = telemetry.Default().Counter("parallel_helper_parks_total",
		"times an idle helper stopped polling and parked")
	steals = telemetry.Default().Counter("parallel_chunk_steals_total",
		"ForWorkers calls in which a worker ran a chunk of another worker's range")
)

func init() {
	w := runtime.GOMAXPROCS(0)
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			w = v
		}
	}
	defaultWorkers.Store(int64(w))
}

// DefaultWorkers returns the current global worker budget.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// SetDefaultWorkers sets the global worker budget; n <= 0 resets it to
// GOMAXPROCS. It returns the budget now in effect.
func SetDefaultWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int64(n))
	return n
}

// Resolve maps a per-call or per-layer budget to an effective worker count:
// positive values pass through, everything else means the global default.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return DefaultWorkers()
}

// ShareN divides a total worker budget (0 = the global default) among parts
// concurrent consumers with no idle remainder: the first Resolve(total)%parts
// shares get one extra worker, so shares differ by at most one and sum to
// exactly Resolve(total) whenever Resolve(total) >= parts. Every share is at
// least 1. Mirrored replicas and experiment-parallel trials index the
// returned slice by their slot so a 7-core budget over 2 replicas runs 4+3
// instead of a floored 3+3 with one core idle.
func ShareN(total, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	w := Resolve(total)
	base := w / parts
	rem := w % parts
	shares := make([]int, parts)
	for i := range shares {
		s := base
		if i < rem {
			s++
		}
		if s < 1 {
			s = 1
		}
		shares[i] = s
	}
	return shares
}

// BeginStep opens a step scope: until the matching EndStep, an idle helper
// polls for its next job, and a caller for its helpers to finish, instead
// of parking after spinWindow, so none of the step's calls waits for a
// parked goroutine to wake. Scopes are process-wide and may nest or
// overlap; helpers stay hot while any is open. Open one only around work
// that runs on more than one worker: the helpers it keeps hot take cores
// that callers at a budget of one leave to others. At GOMAXPROCS 1, where
// nothing polls, a scope has no effect.
func BeginStep() { scopes.Add(1) }

// EndStep closes a scope BeginStep opened. Once none is open, a polling
// helper parks at the end of its current spinWindow.
func EndStep() { scopes.Add(-1) }

// InStep reports whether a step scope is open.
func InStep() bool { return scopes.Load() > 0 }

// ForWorkers partitions [0, n) into chunks of at most grain indices and
// calls fn(slot, lo, hi) for every chunk, with a worker budget of workers
// (0 = global default). It blocks until every chunk is done. fn must treat
// [lo, hi) as its exclusive property; chunks never overlap. slot names the
// worker running the chunk — 0 for the caller, distinct for every worker of
// the call and below min(Resolve(workers), number of chunks) — so a kernel
// can hand each worker a buffer of its own, taken before the call.
//
// The chunk decomposition depends only on n and grain. The chunks are split
// into one contiguous range per worker; slot s claims the s-th in ascending
// order before it steals from the others, so every chunk runs exactly once
// regardless of the budget or of how many helpers were free. With an
// effective budget of one worker, a single chunk or no free helper, fn runs
// on the calling goroutine with no synchronization. fn may itself call
// ForWorkers, and must not call runtime.Goexit (t.FailNow), which would end
// a resident helper mid-job. A panic in any chunk is re-raised on the
// calling goroutine with its original value after all workers have
// drained; the helper that hit it stays in the pool.
func ForWorkers(workers, n, grain int, fn func(slot, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := Resolve(workers)
	if w > chunks {
		w = chunks
	}
	var j *job
	if w > 1 {
		j = claim(w - 1)
	}
	if j == nil {
		for lo := 0; lo < n; lo += grain {
			fn(0, lo, min(lo+grain, n))
		}
		return
	}

	forks.Inc()
	j.fn, j.n, j.grain = fn, n, grain
	j.split(chunks)
	j.spin = runtime.GOMAXPROCS(0) > 1
	j.stole.Store(false)
	j.panicked.Store(nil)
	j.pending.Store(int32(len(j.team)))
	for i, h := range j.team {
		h.slot = i + 1
		h.hand(j)
	}
	j.work(0) // the caller is worker 0
	// Every chunk is claimed now; a helper that has not taken the job yet
	// has nothing left to do, so take the job back instead of waiting for
	// it to wake.
	for _, h := range j.team {
		if h.job.CompareAndSwap(j, nil) {
			j.pending.Add(-1)
		}
	}
	j.wait()
	if j.stole.Load() {
		steals.Inc()
	}
	p := j.panicked.Load()
	j.fn = nil // the record outlives the call; do not keep fn's captures alive
	j.release()
	if p != nil {
		// Re-raise the original value so recover-based handlers see the
		// same panic regardless of the worker budget.
		panic(p.val)
	}
}

// job is one ForWorkers call shared by its caller and the helpers it
// claimed. Each helper owns one record, used while it leads a call, so a
// call allocates nothing.
type job struct {
	fn       func(slot, lo, hi int)
	n, grain int
	spin     bool      // GOMAXPROCS > 1 when the call started
	team     []*helper // claimed helpers; team[0] lends this record
	spans    []span    // slot s's range of chunks at spans[s]
	stole    atomic.Bool
	pending  atomic.Int32 // team members yet to finish or be taken back
	panicked atomic.Pointer[panicValue]
	parked   atomic.Bool   // the caller is parked on wake
	wake     chan struct{} // capacity 1; a stale token only causes a re-check
}

// span is one worker's range of chunks, claimed from next up to end by its
// owner and then by workers that drained their own. It fills a cache line,
// so a claim from one range does not evict another range's cursor.
type span struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// split divides chunks into one contiguous range per worker of the call,
// the caller's first and the first chunks%workers one chunk longer.
func (j *job) split(chunks int) {
	w := len(j.team) + 1
	if cap(j.spans) < w {
		j.spans = make([]span, w)
	}
	j.spans = j.spans[:w]
	base, rem := chunks/w, chunks%w
	for s := range j.spans {
		j.spans[s].next.Store(int64(s*base + min(s, rem)))
		j.spans[s].end = int64((s+1)*base + min(s+1, rem))
	}
}

// panicValue boxes a recovered panic for transport across goroutines.
type panicValue struct{ val any }

// work runs chunks as worker slot — its own range's, then the other
// ranges' from slot+1 on — until none is left or a chunk has panicked.
func (j *job) work(slot int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &panicValue{val: r})
		}
	}()
	w := len(j.spans)
	for i := range w {
		s := &j.spans[(slot+i)%w]
		for c := s.next.Add(1) - 1; c < s.end; c = s.next.Add(1) - 1 {
			if j.panicked.Load() != nil {
				return
			}
			if i > 0 && !j.stole.Load() {
				j.stole.Store(true)
			}
			lo := int(c) * j.grain
			j.fn(slot, lo, min(lo+j.grain, j.n))
		}
	}
}

// done is a helper's last touch of j: once pending reaches zero the caller
// may release the team and the record may be reused, which the atomic
// fields and the non-blocking send tolerate.
func (j *job) done() {
	if j.pending.Add(-1) == 0 && j.parked.Load() {
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every team member has finished or been taken back,
// polling first when j.spin is set: for spinWindow, and for as long as a
// step scope is open.
func (j *job) wait() {
	for j.spin {
		if poll(func() bool { return j.pending.Load() == 0 }) {
			return
		}
		if !InStep() {
			break
		}
	}
	j.parked.Store(true)
	for j.pending.Load() != 0 {
		<-j.wake
	}
	j.parked.Store(false)
}

// release returns the team to the pool. The lead goes last: releasing it
// frees this record for the next call.
func (j *job) release() {
	for i := len(j.team) - 1; i >= 0; i-- {
		j.team[i].claimed.Store(false)
	}
}

// helper is one resident worker goroutine.
type helper struct {
	claimed atomic.Bool         // owned by a caller for one call
	job     atomic.Pointer[job] // handed over, not yet taken
	parked  atomic.Bool         // parked on wake
	wake    chan struct{}       // capacity 1; a stale token only causes a re-check
	lead    *job                // the record this helper lends when it leads
	slot    int                 // worker slot in the job handed over, set by its caller
}

// hand gives j to h and wakes it if it parked.
func (h *helper) hand(j *job) {
	h.job.Store(j)
	if h.parked.Load() {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// loop serves jobs for the life of the process.
func (h *helper) loop() {
	spin := false
	for {
		j := h.await(spin)
		j.work(h.slot)
		spin = j.spin
		j.done()
	}
}

// await returns the next job handed to h, polling first when spin is set:
// for spinWindow, and for as long as a step scope is open.
func (h *helper) await(spin bool) *job {
	for spin {
		if poll(func() bool { return h.job.Load() != nil }) {
			if j := h.job.Swap(nil); j != nil {
				return j
			}
		} else if !InStep() {
			break
		}
	}
	parks.Inc()
	h.parked.Store(true)
	for {
		if j := h.job.Swap(nil); j != nil {
			h.parked.Store(false)
			return j
		}
		<-h.wake
	}
}

// poll reports whether cond became true within spinWindow, yielding the
// processor between checks so a goroutine it waits for can run even when
// the budget exceeds GOMAXPROCS.
func poll(cond func() bool) bool {
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			if cond() {
				return true
			}
		}
		if time.Since(start) > spinWindow {
			return false
		}
		runtime.Gosched()
	}
}

// pool is the process-wide helper set. helpers only grows; it is replaced
// copy-on-write under mu so claim can scan it without locking.
var pool struct {
	mu      sync.Mutex
	helpers atomic.Pointer[[]*helper]
}

// claim reserves up to want free helpers, growing the pool to want first,
// and returns the first one's job record with team set, or nil when every
// helper is busy.
func claim(want int) *job {
	hs := pool.helpers.Load()
	if hs == nil || len(*hs) < want {
		hs = grow(want)
	}
	var j *job
	for _, h := range *hs {
		if h.claimed.Load() || !h.claimed.CompareAndSwap(false, true) {
			continue
		}
		if j == nil {
			j = h.lead
			j.team = j.team[:0]
		}
		if j.team = append(j.team, h); len(j.team) == want {
			break
		}
	}
	return j
}

// grow extends the pool to at least size helpers and returns it.
func grow(size int) *[]*helper {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var old []*helper
	if p := pool.helpers.Load(); p != nil {
		if old = *p; len(old) >= size {
			return p
		}
	}
	hs := make([]*helper, size)
	copy(hs, old)
	for i := len(old); i < size; i++ {
		hs[i] = &helper{wake: make(chan struct{}, 1), lead: &job{wake: make(chan struct{}, 1)}}
		go hs[i].loop()
	}
	pool.helpers.Store(&hs)
	return &hs
}
