//go:build !amd64

package nn

// addRows adds rows runs of n elements, stride apart, of src onto the same
// positions of dst: dst[r·stride+i] += src[r·stride+i].
func addRows(dst, src []float32, rows, n, stride int) {
	for r := 0; r < rows; r++ {
		d := dst[r*stride : r*stride+n]
		for i, v := range src[r*stride : r*stride+n] {
			d[i] += v
		}
	}
}
