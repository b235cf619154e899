package pipeline

import (
	"sort"
	"testing"
	"testing/quick"
)

// ints returns a dataset over 0, 1, …, n-1.
func ints(n int) Dataset[int] {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return FromSlice(xs)
}

// collect drains one iteration of d into a slice.
func collect[T any](d Dataset[T]) []T {
	it := d.Iterate()
	defer it.Close()
	var out []T
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestFromSliceCollect(t *testing.T) {
	got := collect(FromSlice([]string{"a", "b", "c"}))
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestDatasetReopenable(t *testing.T) {
	d := Shuffle(ints(5), 5, 1)
	a, b := collect(d), collect(d)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("iterations yielded %d and %d elements, want 5 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-opened dataset changed order: %v then %v", a, b)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	got := collect(Shuffle(ints(100), 32, 1))
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
	got := collect(Shuffle(ints(100), 64, 1))
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
	a := collect(Shuffle(ints(50), 16, 7))
	b := collect(Shuffle(ints(50), 16, 7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give the same order")
		}
	}
	c := collect(Shuffle(ints(50), 16, 8))
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
	batches := collect(Batch(ints(7), 3, false))
	if len(batches) != 3 {
		t.Fatalf("batches %d", len(batches))
	}
	if len(batches[2]) != 1 || batches[2][0] != 6 {
		t.Fatalf("final partial batch wrong: %v", batches[2])
	}
}

func TestBatchDropRemainder(t *testing.T) {
	batches := collect(Batch(ints(7), 3, true))
	if len(batches) != 2 {
		t.Fatalf("batches %d, want 2 with drop_remainder", len(batches))
	}
	for _, b := range batches {
		if len(b) != 3 {
			t.Fatalf("ragged batch %v", b)
		}
	}
}

func TestComposedPipeline(t *testing.T) {
	// FromSlice → Shuffle → Batch, the shape train.Session reads an epoch
	// through: every element arrives exactly once, in full batches.
	xs := make([]int, 20)
	for i := range xs {
		xs[i] = i * 2
	}
	out := collect(Batch(Shuffle(FromSlice(xs), len(xs), 3), 4, true))
	if len(out) != 5 {
		t.Fatalf("%d batches, want 5", len(out))
	}
	seen := map[int]bool{}
	for _, b := range out {
		if len(b) != 4 {
			t.Fatalf("ragged batch %v", b)
		}
		for _, v := range b {
			seen[v] = true
		}
	}
	for _, v := range xs {
		if !seen[v] {
			t.Fatalf("missing element %d", v)
		}
	}
}

// Property: for any sizes, Batch partitions the stream without loss.
func TestPropertyBatchPartition(t *testing.T) {
	f := func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw) % 100
		size := int(sizeRaw)%10 + 1
		batches := collect(Batch(ints(n), size, false))
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
		got := collect(Shuffle(ints(n), buf, seed))
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
