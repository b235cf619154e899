//go:build !amd64

package gemm

// useAsm is false off amd64: kernelGo and the Go packing loops are the only
// paths.
const useAsm = false

func kernel(a, b []float32, rows []int, quads *[4]int, c []float32, ldc int, st *tileStore) {
	kernelGo(a, b, rows, quads, c, ldc, st)
}

func copyRows(dst, src []float32, ldb, pw int) int { return 0 }

func transposeRows(dst, src []float32, ldb, pw int) int { return 0 }
