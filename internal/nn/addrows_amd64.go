//go:build amd64

package nn

// addRows adds rows runs of n elements, stride apart, of src onto the same
// positions of dst: dst[r·stride+i] += src[r·stride+i]. The assembly takes
// the extent from rows, n and stride alone, so callers slice both operands
// to (rows-1)·stride+n elements first — that is the bounds check.
//
//go:noescape
func addRows(dst, src []float32, rows, n, stride int)
