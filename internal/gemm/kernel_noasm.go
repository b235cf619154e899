//go:build !amd64

package gemm

// useAsm is false off amd64: kernelGo and the Go packing loops are the only
// paths.
const useAsm = false

// AVX2 reports whether this package's AVX2 paths are live: never, off amd64.
func AVX2() bool { return false }

func runTiles(t *tileRun) { tilesGo(t) }

func copyRows(dst, src []float32, ldb, pw int) int { return 0 }

func transposeRows(dst, src []float32, ldb, pw int) int { return 0 }
