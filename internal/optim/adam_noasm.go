//go:build !amd64

package optim

// useAsm is false off amd64: the Go loop is the only path.
const useAsm = false

func adamVec(val, grad, m, v []float32, k *adamStep) int { return 0 }
