//go:build amd64

package optim

import "repro/internal/gemm"

// useAsm reports whether Adam's AVX2 update is live: gemm's once-at-init
// check, so every package takes the same paths.
var useAsm = gemm.AVX2()

// adamVec is adamGo over the leading multiple of 4 elements of val, and
// returns how many it did: none without AVX2. The wrapper slices every
// operand to that extent, which is the bounds check; the assembly reads no
// length.
func adamVec(val, grad, m, v []float32, k *adamStep) int {
	n := len(val) &^ 3
	if !useAsm || n == 0 {
		return 0
	}
	adamAVX2(val[:n], grad[:n], m[:n], v[:n], k, n/4)
	return n
}

//go:noescape
func adamAVX2(val, grad, m, v []float32, k *adamStep, quads int)
