//go:build !amd64

package gemm

// useAsm is false off amd64: kernelGo and the Go packing loops are the only
// paths.
const useAsm = false

func kernel(pw int, a, b, c []float32, ldc int, overwrite bool) {
	kernelGo(pw, a, b, c, ldc, overwrite)
}

func copyRows(dst, src []float32, ldb, pw int) int { return 0 }

func transposeRows(dst, src []float32, ldb, pw int) int { return 0 }

func gatherRows(dst, src []float32, rows []int, quads *[4]int) {
	gatherRowsGo(dst, src, rows, quads)
}

func gatherCols(dst, src []float32, rows *[nr]int, quads []int) {
	gatherColsGo(dst, src, rows, quads)
}
