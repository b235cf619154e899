package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmGolden holds FNV-1a hashes of Gemm's output bits, one per
// (transA, transB, accumulate) combination, each folded over every shape of
// goldenM × goldenN × goldenK. They were captured from the scalar 4×4 Go
// kernel at commit 67b9af4 — the parent of the vector-kernel rewrite — by
// running this test there, so a pass means "bit-identical to that kernel",
// which is what keeps every pinned training golden in the repo valid. The
// shapes straddle the register tile (4 rows, 16 columns) and each blocking
// constant (ncBlock 256, kcBlock 384); 1728 = 64·27 spans five K slices.
var gemmGolden = map[string]uint64{
	"tA=false_tB=false_acc=false": 0xec5753bae029927f,
	"tA=false_tB=false_acc=true":  0xc8cc4974e24d7d8a,
	"tA=false_tB=true_acc=false":  0x7c9fee89ad6b9b60,
	"tA=false_tB=true_acc=true":   0x6817a668c091f83a,
	"tA=true_tB=false_acc=false":  0x3d55be7de403502a,
	"tA=true_tB=false_acc=true":   0x0d52754c1d850d85,
	"tA=true_tB=true_acc=false":   0x0dfc3369c3bb1041,
	"tA=true_tB=true_acc=true":    0xed2d471499feaade,
}

var (
	goldenM = []int{1, 3, 4, 5, 33}
	goldenN = []int{1, 15, 16, 17, 255, 256, 257, 4096}
	goldenK = []int{1, 8, 383, 384, 385, 1728}
)

func TestGemmGoldenHash(t *testing.T) {
	const maxM, maxN, maxK = 33, 4096, 1728
	rng := rand.New(rand.NewSource(20260926))
	a := randMat(rng, maxM*maxK)
	b := randMat(rng, maxK*maxN)
	seed := randMat(rng, maxM*maxN)
	c := make([]float32, maxM*maxN)

	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, acc := range []bool{false, true} {
				name := fmt.Sprintf("tA=%v_tB=%v_acc=%v", transA, transB, acc)
				t.Run(name, func(t *testing.T) {
					h := uint64(14695981039346656037)
					for _, m := range goldenM {
						for _, n := range goldenN {
							for _, k := range goldenK {
								lda, ldb := k, n
								if transA {
									lda = m
								}
								if transB {
									ldb = k
								}
								out := c[:m*n]
								copy(out, seed)
								Gemm(transA, transB, m, n, k, a, lda, b, ldb, acc, out, n, 0)
								for _, v := range out {
									bits := math.Float32bits(v)
									for s := 0; s < 32; s += 8 {
										h = (h ^ uint64(bits>>s&0xff)) * 1099511628211
									}
								}
							}
						}
					}
					if want := gemmGolden[name]; h != want {
						t.Fatalf("output hash %#x, want %#x (captured from the parent commit's scalar kernel)", h, want)
					}
				})
			}
		}
	}
}
