package pipeline

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func ints(n int) Dataset[int] {
	return FromFunc(n, func(i int) int { return i })
}

func TestFromSliceCollect(t *testing.T) {
	got := FromSlice([]string{"a", "b", "c"}).Collect()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestFromFuncCount(t *testing.T) {
	if n := ints(17).Count(); n != 17 {
		t.Fatalf("count %d", n)
	}
}

func TestDatasetReopenable(t *testing.T) {
	d := ints(5)
	if d.Count() != 5 || d.Count() != 5 {
		t.Fatal("dataset must be re-iterable")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	// Two sub-streams of three elements each, cycle 2 → strict alternation.
	d := Interleave(FromSlice([]int{0, 100}), 2, func(base int) Dataset[int] {
		return FromFunc(3, func(i int) int { return base + i })
	})
	got := d.Collect()
	want := []int{0, 100, 1, 101, 2, 102}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestInterleaveRefillsCycle(t *testing.T) {
	// Four sub-streams with cycle 2: the third starts after one finishes.
	d := Interleave(ints(4), 2, func(base int) Dataset[int] {
		return FromFunc(2, func(i int) int { return base*10 + i })
	})
	got := d.Collect()
	if len(got) != 8 {
		t.Fatalf("lost elements: %v", got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	for _, want := range []int{0, 1, 10, 11, 20, 21, 30, 31} {
		if !seen[want] {
			t.Fatalf("missing %d in %v", want, got)
		}
	}
}

func TestInterleaveCycleOne(t *testing.T) {
	d := Interleave(ints(3), 0, func(base int) Dataset[int] {
		return FromSlice([]int{base})
	})
	got := d.Collect()
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	got := Shuffle(ints(100), 32, 1).Collect()
	if len(got) != 100 {
		t.Fatalf("length %d", len(got))
	}
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	for i := range sorted {
		if sorted[i] != i {
			t.Fatal("shuffle lost or duplicated elements")
		}
	}
}

func TestShuffleChangesOrder(t *testing.T) {
	got := Shuffle(ints(100), 64, 1).Collect()
	inPlace := 0
	for i, v := range got {
		if v == i {
			inPlace++
		}
	}
	if inPlace > 50 {
		t.Fatalf("shuffle too weak: %d/100 fixed points", inPlace)
	}
}

func TestShuffleDeterministicBySeed(t *testing.T) {
	a := Shuffle(ints(50), 16, 7).Collect()
	b := Shuffle(ints(50), 16, 7).Collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same order")
		}
	}
	c := Shuffle(ints(50), 16, 8).Collect()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical order")
	}
}

func TestBatch(t *testing.T) {
	batches := Batch(ints(7), 3, false).Collect()
	if len(batches) != 3 {
		t.Fatalf("batches %d", len(batches))
	}
	if len(batches[2]) != 1 || batches[2][0] != 6 {
		t.Fatalf("final partial batch wrong: %v", batches[2])
	}
}

func TestBatchDropRemainder(t *testing.T) {
	batches := Batch(ints(7), 3, true).Collect()
	if len(batches) != 2 {
		t.Fatalf("batches %d, want 2 with drop_remainder", len(batches))
	}
	for _, b := range batches {
		if len(b) != 3 {
			t.Fatalf("ragged batch %v", b)
		}
	}
}

func TestPrefetchDeliversAll(t *testing.T) {
	got := Prefetch(ints(50), 8).Collect()
	if len(got) != 50 {
		t.Fatalf("length %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatal("prefetch reordered elements")
		}
	}
}

func TestPrefetchOverlapsProducer(t *testing.T) {
	var produced int32
	slow := FromFunc(10, func(i int) int {
		atomic.AddInt32(&produced, 1)
		return i
	})
	it := Prefetch(slow, 4).Iterate()
	defer it.Close()
	if _, ok := it.Next(); !ok {
		t.Fatal("no first element")
	}
	// Give the background producer time to run ahead.
	deadline := time.Now().Add(time.Second)
	for atomic.LoadInt32(&produced) < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&produced) < 4 {
		t.Fatalf("prefetch did not run ahead: produced %d", produced)
	}
}

func TestPrefetchEarlyCloseDoesNotLeak(t *testing.T) {
	it := Prefetch(ints(100000), 2).Iterate()
	it.Next()
	it.Close()
	// Second close must be safe.
	it.Close()
}

func TestComposedPipeline(t *testing.T) {
	// interleave → shuffle → batch → prefetch, the paper's full input
	// pipeline shape; each sub-stream's producer maps its index.
	d := Interleave(ints(4), 2, func(shard int) Dataset[int] {
		return FromFunc(5, func(i int) int { return (shard*5 + i) * 2 })
	})
	d = Shuffle(d, 8, 3)
	batched := Batch(d, 4, false)
	out := Prefetch(batched, 2).Collect()
	total := 0
	seen := map[int]bool{}
	for _, b := range out {
		total += len(b)
		for _, v := range b {
			seen[v] = true
		}
	}
	if total != 20 {
		t.Fatalf("pipeline lost elements: %d", total)
	}
	for i := 0; i < 20; i++ {
		if !seen[i*2] {
			t.Fatalf("missing element %d", i*2)
		}
	}
}

// Property: for any sizes, Batch partitions the stream without loss.
func TestPropertyBatchPartition(t *testing.T) {
	f := func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw) % 100
		size := int(sizeRaw)%10 + 1
		batches := Batch(ints(n), size, false).Collect()
		total := 0
		next := 0
		for _, b := range batches {
			total += len(b)
			for _, v := range b {
				if v != next {
					return false
				}
				next++
			}
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Shuffle yields a permutation for any buffer size.
func TestPropertyShufflePermutation(t *testing.T) {
	f := func(nRaw, bufRaw uint8, seed int64) bool {
		n := int(nRaw) % 60
		buf := int(bufRaw)%20 + 1
		got := Shuffle(ints(n), buf, seed).Collect()
		if len(got) != n {
			return false
		}
		sort.Ints(got)
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
