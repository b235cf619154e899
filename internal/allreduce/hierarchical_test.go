package allreduce

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHierarchicalMatchesRing(t *testing.T) {
	for _, n := range []int{2, 4, 5, 8, 12, 16} {
		for _, group := range []int{1, 2, 4} {
			a, want := randBufs(int64(n*100+group), n, 37)
			if err := Hierarchical(a, group); err != nil {
				t.Fatalf("n=%d group=%d: %v", n, group, err)
			}
			checkAllEqual(t, a, want, 1e-3)
		}
	}
}

func TestHierarchicalSingleBuffer(t *testing.T) {
	bufs := [][]float32{{1, 2}}
	if err := Hierarchical(bufs, 4); err != nil {
		t.Fatal(err)
	}
	if bufs[0][0] != 1 {
		t.Fatal("single buffer must be untouched")
	}
}

func TestHierarchicalUnevenLastGroup(t *testing.T) {
	// 6 buffers with node width 4: groups of 4 and 2 (the paper's 12-GPU
	// case has three full nodes; this covers the ragged case).
	bufs, want := randBufs(5, 6, 20)
	if err := Hierarchical(bufs, 4); err != nil {
		t.Fatal(err)
	}
	checkAllEqual(t, bufs, want, 1e-3)
}

func TestHierarchicalAverage(t *testing.T) {
	bufs := [][]float32{{8}, {0}, {4}, {0}}
	runAll(t, LocalTopologies(len(bufs), 2, NetConfig{}), func(tp *Topology) error {
		return tp.AllReduceAverage(bufs[tp.Rank()])
	})
	for i, b := range bufs {
		if b[0] != 3 {
			t.Fatalf("buffer %d: %v, want 3", i, b[0])
		}
	}
}

func TestHierarchicalValidation(t *testing.T) {
	if err := Hierarchical(nil, 4); err == nil {
		t.Fatal("empty must error")
	}
	if err := Hierarchical([][]float32{{1}, {1}}, 0); err == nil {
		t.Fatal("groupSize 0 must error")
	}
}

// Property: hierarchical and flat ring agree for random shapes.
func TestPropertyHierarchicalEqualsFlat(t *testing.T) {
	f := func(seed int64, nRaw, gRaw, sizeRaw uint8) bool {
		n := int(nRaw)%10 + 2
		g := int(gRaw)%4 + 1
		size := int(sizeRaw)%30 + 1
		a, _ := randBufs(seed, n, size)
		b := make([][]float32, n)
		for i := range a {
			b[i] = append([]float32(nil), a[i]...)
		}
		if err := Hierarchical(a, g); err != nil {
			return false
		}
		if err := Ring(b); err != nil {
			return false
		}
		for w := range a {
			for i := range a[w] {
				if math.Abs(float64(a[w][i]-b[w][i])) > 1e-2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
