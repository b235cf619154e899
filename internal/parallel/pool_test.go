package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within runs f and, if it has not returned after d, crashes the test
// binary with every goroutine's stack, so a pool deadlock reports where
// everyone is stuck instead of hanging until go test's own timeout.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	watchdog := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: still running after %v; goroutines:\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
	defer watchdog.Stop()
	f()
}

// checkCover calls ForWorkers and reports any index of [0, n) not visited
// exactly once.
func checkCover(t *testing.T, workers, n, grain int) {
	hits := make([]int32, n)
	ForWorkers(workers, n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
			return
		}
	}
}

// TestForConcurrentCallers: eight callers at budget 2 share the helpers —
// each runs with whatever it could claim, down to none — and every caller
// still covers its own range exactly once.
func TestForConcurrentCallers(t *testing.T) {
	within(t, 30*time.Second, func() {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for it := 0; it < 200; it++ {
					checkCover(t, 2, 50+c*7+it%13, 1+it%5)
				}
			}(c)
		}
		wg.Wait()
	})
}

// TestForNested: a chunk that calls ForWorkers itself claims whatever
// helpers are still free (or none) and completes without deadlock.
func TestForNested(t *testing.T) {
	within(t, 30*time.Second, func() {
		for it := 0; it < 50; it++ {
			var total atomic.Int64
			ForWorkers(4, 8, 1, func(_, lo, hi int) {
				ForWorkers(4, 100, 3, func(_, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			})
			if got := total.Load(); got != 800 {
				t.Errorf("nested calls covered %d indices, want 800", got)
				return
			}
		}
	})
}

// TestForPanicKeepsHelpers: after chunks panic, every helper is back in the
// pool and usable — the next call can engage all of them at once. Each of
// its chunks waits for all the others to start, which only a call that
// engaged every helper can satisfy.
func TestForPanicKeepsHelpers(t *testing.T) {
	within(t, 30*time.Second, func() {
		func() {
			defer func() {
				if r := recover(); r != "helper boom" {
					t.Errorf("recovered %v, want \"helper boom\"", r)
				}
			}()
			ForWorkers(4, 64, 1, func(_, lo, hi int) {
				if lo%2 == 1 {
					panic("helper boom")
				}
			})
		}()
		hs := *pool.helpers.Load()
		for i, h := range hs {
			if h.claimed.Load() || h.job.Load() != nil {
				t.Fatalf("helper %d still claimed after the call returned", i)
			}
		}

		width := len(hs) + 1
		var arrived atomic.Int32
		all := make(chan struct{})
		ForWorkers(width, width, 1, func(_, lo, hi int) {
			if arrived.Add(1) == int32(width) {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Errorf("chunk %d: only %d of %d workers engaged", lo, arrived.Load(), width)
			}
		})
	})
}

// TestForSingleProcNoSpin: with GOMAXPROCS=1 and a budget above it, the
// helpers and the caller park instead of polling, so thousands of tiny
// calls finish promptly — in a step scope too, where every helper that ran
// a job parks after it.
func TestForSingleProcNoSpin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	within(t, 20*time.Second, func() {
		var sum atomic.Int64
		fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
		for it := 0; it < 2000; it++ {
			ForWorkers(4, 64, 1, fn)
		}
		if got := sum.Load(); got != 2000*64 {
			t.Errorf("covered %d indices, want %d", got, 2000*64)
		}

		BeginStep()
		defer EndStep()
		const calls = 50
		before := parks.Value()
		for it := 0; it < calls; it++ {
			// Each chunk waits for the others, so all three helpers take
			// the job.
			var arrived sync.WaitGroup
			arrived.Add(4)
			ForWorkers(4, 4, 1, func(_, _, _ int) {
				arrived.Done()
				arrived.Wait()
			})
		}
		for deadline := time.Now().Add(5 * time.Second); parks.Value()-before < 3*calls; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d helper parks after %d calls in a step scope at GOMAXPROCS 1, want %d: the helpers polled",
					parks.Value()-before, calls, 3*calls)
			}
		}
	})
}

// TestForWorkersOwnRangeFirst pins which worker runs which chunk. Each
// worker of a call owns one contiguous range of the chunks — slot s the
// s-th, the first chunks%workers one chunk longer — and with every helper
// free each slot's first chunk is its own range's first: every first chunk
// waits until all workers of the call have started, so none can have
// drained its range and stolen yet. A worker claims its own range in
// ascending order, then the other ranges', from slot+1 on, each in
// ascending order; every chunk runs exactly once.
func TestForWorkersOwnRangeFirst(t *testing.T) {
	within(t, 60*time.Second, func() {
		for budget := 1; budget <= 7; budget++ {
			for _, chunks := range []int{budget - 1, budget, budget + 1, 3*budget + 2} {
				if chunks < 1 {
					continue
				}
				checkOwnRangeFirst(t, budget, chunks)
			}
		}
	})
}

func checkOwnRangeFirst(t *testing.T, budget, chunks int) {
	t.Helper()
	w := min(budget, chunks)
	starts := make([]int, w+1)
	for s := range w {
		starts[s+1] = starts[s] + chunks/w
		if s < chunks%w {
			starts[s+1]++
		}
	}
	owner := func(c int) int {
		s := w - 1
		for c < starts[s] {
			s--
		}
		return s
	}
	var mu sync.Mutex
	ran := make([][]int, w) // the chunks each slot ran, in order
	hits := make([]int, chunks)
	var arrived atomic.Int32
	all := make(chan struct{})
	ForWorkers(budget, chunks, 1, func(slot, lo, _ int) {
		if slot < 0 || slot >= w {
			t.Errorf("budget=%d chunks=%d: slot %d outside [0, %d)", budget, chunks, slot, w)
			return
		}
		mu.Lock()
		first := len(ran[slot]) == 0
		ran[slot] = append(ran[slot], lo)
		hits[lo]++
		mu.Unlock()
		if !first {
			return
		}
		if arrived.Add(1) == int32(w) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("budget=%d chunks=%d: only %d of %d workers started", budget, chunks, arrived.Load(), w)
		}
	})
	for c, h := range hits {
		if h != 1 {
			t.Errorf("budget=%d chunks=%d: chunk %d ran %d times", budget, chunks, c, h)
		}
	}
	for s, seq := range ran {
		if len(seq) == 0 || seq[0] != starts[s] {
			t.Errorf("budget=%d chunks=%d: slot %d ran %v first, want its range's first chunk %d", budget, chunks, s, seq, starts[s])
			continue
		}
		// Order a slot's chunks by (steal distance of their range, index):
		// its sequence must rise strictly in that order.
		key := func(c int) int { return ((owner(c)-s+w)%w)*chunks + c }
		for i := 1; i < len(seq); i++ {
			if key(seq[i]) <= key(seq[i-1]) {
				t.Errorf("budget=%d chunks=%d: slot %d ran %v, out of claiming order", budget, chunks, s, seq)
				break
			}
		}
	}
}

// TestForWorkersNoAllocs: a multi-worker call with a pre-built fn allocates
// nothing — no goroutine, no job record, no closure.
func TestForWorkersNoAllocs(t *testing.T) {
	var sink atomic.Int64
	fn := func(_, lo, hi int) { sink.Add(int64(hi - lo)) }
	if allocs := testing.AllocsPerRun(200, func() { ForWorkers(2, 64, 1, fn) }); allocs != 0 {
		t.Fatalf("ForWorkers(2, …) allocates %v objects per call, want 0", allocs)
	}
}

// TestStepScopeKeepsHelpersHot: while a step scope is open an idle helper
// never parks — parking is not chosen inside a scope, however long the
// helper waits — and once the scope closes it parks after a bounded poll.
func TestStepScopeKeepsHelpersHot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	within(t, 30*time.Second, func() {
		ForWorkers(2, 2, 1, func(_, _, _ int) {})
		// Let every helper park first, so a park counted below can only
		// come from a helper that ran a job inside the scope.
		for _, h := range *pool.helpers.Load() {
			for !h.parked.Load() {
				time.Sleep(spinWindow)
			}
		}
		BeginStep()
		// Each chunk waits for the other, so the helper takes the job.
		var arrived sync.WaitGroup
		arrived.Add(2)
		ForWorkers(2, 2, 1, func(_, _, _ int) {
			arrived.Done()
			arrived.Wait()
		})
		before := parks.Value()
		time.Sleep(20 * spinWindow)
		if got := parks.Value() - before; got != 0 {
			t.Errorf("%d helper parks while a step scope was open, want 0", got)
		}
		EndStep()
		if InStep() {
			t.Fatal("InStep after the only scope closed")
		}
		for parks.Value() == before {
			time.Sleep(spinWindow)
		}
	})
}

// TestStepScopeKeepsCallerHot: a caller that waits for a helper's chunk
// longer than spinWindow does not park while a step scope is open, and
// does once none is.
func TestStepScopeKeepsCallerHot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	callerParked := func() bool {
		for _, h := range *pool.helpers.Load() {
			if h.lead.parked.Load() {
				return true
			}
		}
		return false
	}
	// run makes the helper's chunk outlast the caller's and reports whether
	// the caller parked; inside a scope it gives up after 20 × spinWindow.
	run := func(scoped bool) (parked bool) {
		var arrived sync.WaitGroup
		arrived.Add(2)
		ForWorkers(2, 2, 1, func(slot, _, _ int) {
			arrived.Done()
			arrived.Wait()
			if slot == 0 {
				return
			}
			for start := time.Now(); !parked; time.Sleep(spinWindow) {
				parked = callerParked()
				if scoped && time.Since(start) > 20*spinWindow {
					break
				}
			}
		})
		return parked
	}
	within(t, 30*time.Second, func() {
		BeginStep()
		parked := run(true)
		EndStep()
		if parked {
			t.Error("the caller parked while a step scope was open")
		}
		if !run(false) {
			t.Error("the caller never parked outside a step scope")
		}
	})
}

// TestForkCounter: a call that hands work to a helper counts one fork; a
// call at budget one, which runs inline, counts none.
func TestForkCounter(t *testing.T) {
	fn := func(_, _, _ int) {}
	before := forks.Value()
	ForWorkers(1, 64, 1, fn)
	if got := forks.Value() - before; got != 0 {
		t.Errorf("budget-1 call counted %d forks, want 0", got)
	}
	ForWorkers(2, 64, 1, fn)
	if got := forks.Value() - before; got != 1 {
		t.Errorf("budget-2 call counted %d forks, want 1", got)
	}
}
