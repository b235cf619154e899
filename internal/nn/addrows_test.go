package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestAddRowsMatchesScalarLoop holds the vector add helper of col2imAdd to
// the scalar loop it replaced, bit for bit, at every run length around its
// 8-, 4- and 1-wide stages, and checks it leaves the gaps between runs and
// the elements either side of the slice alone.
func TestAddRowsMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, rows := range []int{0, 1, 3} {
		for n := 0; n <= 41; n++ {
			stride := n + 2
			size := 0
			if rows > 0 {
				size = (rows-1)*stride + n
			}
			pool := randTensor(rng, 2*size+2).Data()
			buf, src := pool[:size+2], pool[size+2:]
			want := append([]float32(nil), buf...)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					want[1+r*stride+i] += src[r*stride+i]
				}
			}
			addRows(buf[1:1+size], src, rows, n, stride)
			for i := range want {
				if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
					t.Fatalf("rows=%d n=%d: element %d = %v, want %v", rows, n, i-1, buf[i], want[i])
				}
			}
		}
	}
}
