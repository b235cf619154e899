package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversRangeExactlyOnce checks that every index in [0, n) is visited
// exactly once for a grid of sizes, grains and worker budgets.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, grain := range []int{0, 1, 3, 64, 5000} {
			for _, workers := range []int{1, 2, 3, 8, 100} {
				hits := make([]int32, n+1)
				ForWorkers(workers, n, grain, func(_, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d grain=%d workers=%d: bad chunk [%d,%d)", n, grain, workers, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i := 0; i < n; i++ {
					if hits[i] != 1 {
						t.Fatalf("n=%d grain=%d workers=%d: index %d visited %d times", n, grain, workers, i, hits[i])
					}
				}
			}
		}
	}
}

// TestForChunkBoundaries checks the chunk decomposition is exactly the
// grain-sized partition of [0, n), independent of the worker budget.
func TestForChunkBoundaries(t *testing.T) {
	const n, grain = 103, 10
	for _, workers := range []int{1, 4} {
		var starts sync32Set
		ForWorkers(workers, n, grain, func(_, lo, hi int) {
			if lo%grain != 0 {
				t.Errorf("workers=%d: chunk start %d not aligned to grain %d", workers, lo, grain)
			}
			want := lo + grain
			if want > n {
				want = n
			}
			if hi != want {
				t.Errorf("workers=%d: chunk [%d,%d), want [%d,%d)", workers, lo, hi, lo, want)
			}
			starts.add(int32(lo))
		})
		if got := starts.len(); got != (n+grain-1)/grain {
			t.Errorf("workers=%d: %d chunks, want %d", workers, got, (n+grain-1)/grain)
		}
	}
}

// TestForPanicPropagates checks a worker panic resurfaces on the caller
// with the original panic value, for any worker budget.
func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if r != "boom" {
					t.Fatalf("workers=%d: panic value %v, want original value \"boom\"", workers, r)
				}
			}()
			ForWorkers(workers, 100, 1, func(_, lo, hi int) {
				if lo == 50 {
					panic("boom")
				}
			})
		}()
	}
}

func TestDefaultWorkers(t *testing.T) {
	orig := DefaultWorkers()
	defer SetDefaultWorkers(orig)

	if got := SetDefaultWorkers(3); got != 3 || DefaultWorkers() != 3 {
		t.Fatalf("SetDefaultWorkers(3) = %d, DefaultWorkers() = %d", got, DefaultWorkers())
	}
	if got := SetDefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetDefaultWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if Resolve(5) != 5 {
		t.Fatalf("Resolve(5) = %d", Resolve(5))
	}
	if Resolve(0) != DefaultWorkers() || Resolve(-2) != DefaultWorkers() {
		t.Fatalf("Resolve should fall back to the default budget")
	}
}

func TestShareN(t *testing.T) {
	cases := []struct {
		total, parts int
		want         []int
	}{
		{7, 2, []int{4, 3}},       // remainder goes to the first shares
		{8, 2, []int{4, 4}},       // even split unchanged
		{7, 3, []int{3, 2, 2}},    // one extra share
		{2, 4, []int{1, 1, 1, 1}}, // more parts than workers: min 1 each
		{5, 1, []int{5}},          // single consumer gets everything
		{3, 0, []int{3}},          // parts clamped to 1
	}
	for _, tc := range cases {
		got := ShareN(tc.total, tc.parts)
		if len(got) != len(tc.want) {
			t.Fatalf("ShareN(%d, %d) = %v, want %v", tc.total, tc.parts, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ShareN(%d, %d) = %v, want %v", tc.total, tc.parts, got, tc.want)
			}
		}
	}

	// Whenever the budget covers the parts, the shares must sum to exactly
	// the budget: no core idles.
	for total := 1; total <= 24; total++ {
		for parts := 1; parts <= total; parts++ {
			sum := 0
			for _, s := range ShareN(total, parts) {
				sum += s
			}
			if sum != total {
				t.Fatalf("ShareN(%d, %d) sums to %d", total, parts, sum)
			}
		}
	}

	orig := DefaultWorkers()
	defer SetDefaultWorkers(orig)
	SetDefaultWorkers(5)
	if got := ShareN(0, 2); got[0] != 3 || got[1] != 2 {
		t.Errorf("ShareN(0, 2) with default 5 = %v, want [3 2]", got)
	}
}

// sync32Set is a tiny concurrent set for test bookkeeping.
type sync32Set struct {
	mu   sync.Mutex
	vals map[int32]bool
}

func (s *sync32Set) add(v int32) {
	s.mu.Lock()
	if s.vals == nil {
		s.vals = map[int32]bool{}
	}
	s.vals[v] = true
	s.mu.Unlock()
}

func (s *sync32Set) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// TestForWorkersSlots: each chunk runs on a slot below the call's effective
// budget, min(workers, chunks), and no slot runs two chunks at once — the
// contract that lets a kernel give each slot a buffer of its own.
func TestForWorkersSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 64} {
			limit := min(workers, n)
			busy := make([]atomic.Int32, limit)
			ForWorkers(workers, n, 1, func(slot, lo, hi int) {
				if slot < 0 || slot >= limit {
					t.Errorf("workers=%d n=%d: slot %d outside [0, %d)", workers, n, slot, limit)
					return
				}
				if busy[slot].Add(1) != 1 {
					t.Errorf("workers=%d n=%d: slot %d runs two chunks at once", workers, n, slot)
				}
				runtime.Gosched()
				busy[slot].Add(-1)
			})
		}
	}
}
