package allreduce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBufs(seed int64, n, size int) ([][]float32, []float32) {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]float32, n)
	want := make([]float32, size)
	for w := range bufs {
		bufs[w] = make([]float32, size)
		for i := range bufs[w] {
			bufs[w][i] = float32(rng.NormFloat64())
			want[i] += bufs[w][i]
		}
	}
	return bufs, want
}

func checkAllEqual(t *testing.T, bufs [][]float32, want []float32, tol float64) {
	t.Helper()
	for w, b := range bufs {
		for i := range b {
			if math.Abs(float64(b[i]-want[i])) > tol {
				t.Fatalf("worker %d elem %d: got %v want %v", w, i, b[i], want[i])
			}
		}
	}
}

func TestRingMatchesSum(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		for _, size := range []int{1, 5, 64, 1000} {
			bufs, want := randBufs(int64(n*1000+size), n, size)
			if err := Ring(bufs); err != nil {
				t.Fatalf("n=%d size=%d: %v", n, size, err)
			}
			checkAllEqual(t, bufs, want, 1e-3)
		}
	}
}

func TestRingSingleWorkerNoop(t *testing.T) {
	bufs := [][]float32{{1, 2, 3}}
	if err := Ring(bufs); err != nil {
		t.Fatal(err)
	}
	if bufs[0][1] != 2 {
		t.Fatal("single worker must be a no-op")
	}
}

func TestRingSizeSmallerThanWorkers(t *testing.T) {
	// 5 workers, 3 elements: some chunks are empty.
	bufs, want := randBufs(9, 5, 3)
	if err := Ring(bufs); err != nil {
		t.Fatal(err)
	}
	checkAllEqual(t, bufs, want, 1e-4)
}

func TestRingAverage(t *testing.T) {
	bufs := [][]float32{{2, 4}, {4, 8}}
	if err := RingAverage(bufs); err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		if b[0] != 3 || b[1] != 6 {
			t.Fatalf("average wrong: %v", b)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if err := RingAverage(nil); err == nil {
		t.Fatal("empty buffers must error")
	}
	if err := RingAverage([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged buffers must error")
	}
	if err := Ring([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged buffers must error for the reference ring")
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		for _, parts := range []int{1, 2, 3, 8, 13} {
			covered := 0
			prevHi := 0
			for c := 0; c < parts; c++ {
				lo, hi := chunkBounds(n, parts, c)
				if lo != prevHi {
					t.Fatalf("n=%d parts=%d chunk %d: gap at %d", n, parts, c, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d: covered %d", n, parts, covered)
			}
		}
	}
}

// Property: ring all-reduce is a consensus — all buffers identical after.
func TestPropertyRingConsensus(t *testing.T) {
	f := func(seed int64, nRaw, sizeRaw uint8) bool {
		n := int(nRaw)%7 + 2
		size := int(sizeRaw)%50 + 1
		bufs, _ := randBufs(seed, n, size)
		if err := Ring(bufs); err != nil {
			return false
		}
		for w := 1; w < n; w++ {
			for i := range bufs[0] {
				if bufs[w][i] != bufs[0][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRing8x409k(b *testing.B) {
	// The paper's gradient size: 409,657 parameters over 8 replicas.
	bufs, _ := randBufs(1, 8, 409657)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RingAverage(bufs); err != nil {
			b.Fatal(err)
		}
	}
}
