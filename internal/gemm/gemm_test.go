package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// naive computes C (+)= op(A)·op(B) with a float64-accumulating triple loop,
// the correctness reference.
func naive(transA, transB bool, m, n, k int,
	a []float32, lda int, b []float32, ldb int,
	accumulate bool, c []float32, ldc int) {

	at := func(i, p int) float32 {
		if transA {
			return a[p*lda+i]
		}
		return a[i*lda+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(at(i, p)) * float64(bt(p, j))
			}
			if accumulate {
				c[i*ldc+j] += float32(acc)
			} else {
				c[i*ldc+j] = float32(acc)
			}
		}
	}
}

func randMat(rng *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(rng.NormFloat64())
	}
	return m
}

// tolFor returns an absolute tolerance scaled to the accumulation depth:
// float32 summation of k N(0,1) products drifts by O(k·eps) against the
// float64 reference.
func tolFor(k int) float64 {
	return 1e-5 + float64(k)*4e-7
}

func TestGemmMatchesNaive(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{1, 5, 3},
		{3, 1, 7},
		{4, 4, 4},
		{5, 7, 9},         // nothing divides the tile sizes
		{16, 216, 4096},   // backward-weights shape (K spans many kcBlocks)
		{16, 4096, 216},   // forward shape
		{216, 300, 16},    // backward-input shape
		{129, 257, 385},   // one past every blocking constant
		{mr, nr, kcBlock}, // exactly one tile, one K slice
		{mcBlock, ncBlock, 8},
		{7, nr + 1, 10}, // one full and one ragged panel, both ways
		// Conv lowerings of cubic volumes of edge 2, 4, 8 and 20: n = w³
		// below, at and off multiples of the panel width.
		{8, 8, 108},
		{16, 64, 216},
		{108, 512, 8},
		{8, 8000, 54},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, acc := range []bool{false, true} {
					name := fmt.Sprintf("m%d_n%d_k%d_tA%v_tB%v_acc%v",
						sh.m, sh.n, sh.k, transA, transB, acc)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(7))
						lda, ldb := sh.k, sh.n
						if transA {
							lda = sh.m
						}
						if transB {
							ldb = sh.k
						}
						a := randMat(rng, sh.m*sh.k)
						b := randMat(rng, sh.k*sh.n)
						c := randMat(rng, sh.m*sh.n)
						want := append([]float32(nil), c...)

						Gemm(transA, transB, sh.m, sh.n, sh.k, a, lda, b, ldb, acc, c, sh.n, 1)
						naive(transA, transB, sh.m, sh.n, sh.k, a, lda, b, ldb, acc, want, sh.n)

						tol := tolFor(sh.k)
						for i := range want {
							// !(d <= tol) instead of d > tol so NaN fails.
							if d := math.Abs(float64(c[i] - want[i])); !(d <= tol) {
								t.Fatalf("element %d: got %v want %v (|diff| %g > %g)",
									i, c[i], want[i], d, tol)
							}
						}
					})
				}
			}
		}
	}
}

// TestGemmWorkerCountInvariant asserts the bit-for-bit determinism contract:
// the same product at any worker budget yields identical floats, because
// each C element is owned by one column-block worker and accumulated in a
// budget-independent order.
func TestGemmWorkerCountInvariant(t *testing.T) {
	const m, n, k = 48, 2*ncBlock + 37, kcBlock + 129
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	ref := make([]float32, m*n)
	Gemm(false, false, m, n, k, a, k, b, n, false, ref, n, 1)

	for _, workers := range []int{2, 3, 7, 16} {
		c := make([]float32, m*n)
		Gemm(false, false, m, n, k, a, k, b, n, false, c, n, workers)
		for i := range ref {
			if c[i] != ref[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v (bit-for-bit)",
					workers, i, c[i], ref[i])
			}
		}
	}
}

// TestGemmGatheredMatchesDense asserts the virtual-B contract: a product
// whose B is a gathered operand — an offset description of a stored matrix,
// read in place or packed — is bit-for-bit equal to Gemm over the stored
// matrix, in either orientation, at several worker budgets. A row-major
// op(B) is described at run 4 where its rows allow it (run 1 otherwise); a
// transposed one, whose columns are contiguous, by run-1 tables that walk
// the stored matrix column-major.
func TestGemmGatheredMatchesDense(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{16, 4096, 216}, // conv forward shape
		{5, 7, 9},
		{129, 2*ncBlock + 37, kcBlock + 129},
		{129, 2*ncBlock + 36, kcBlock + 128},
		// Forward shapes of cubic volumes of edge 2, 4, 8 and 20.
		{8, 8, 108},
		{16, 64, 216},
		{16, 512, 432},
		{8, 8000, 54},
	}
	for _, sh := range shapes {
		for _, trans := range []bool{false, true} {
			for _, acc := range []bool{false, true} {
				name := fmt.Sprintf("m%d_n%d_k%d_tB%v_acc%v", sh.m, sh.n, sh.k, trans, acc)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(11))
					a := randMat(rng, sh.m*sh.k)
					b := randMat(rng, sh.k*sh.n)
					seed := randMat(rng, sh.m*sh.n)

					// b is stored k×n as op(B) itself, or n×k when trans:
					// op(B)[p, j] = b[p·sp + j·sj].
					ldb, sp, sj := sh.n, sh.n, 1
					if trans {
						ldb, sp, sj = sh.k, 1, sh.k
					}
					want := append([]float32(nil), seed...)
					Gemm(false, trans, sh.m, sh.n, sh.k, a, sh.k, b, ldb, acc, want, sh.n, 1)

					run := 1
					if !trans && sh.n%4 == 0 {
						run = 4
					}
					rows, starts := make([]int, sh.k), make([]int, sh.n/run)
					for i := range rows {
						rows[i] = i * sp
					}
					for i := range starts {
						starts[i] = i * run * sj
					}
					op := NewGathered(rows, starts, run).Operand(b, 0)
					for _, workers := range []int{1, 3, 8} {
						got := append([]float32(nil), seed...)
						GemmBatch(new(tensor.Workspace), 1, false, sh.m, sh.n, sh.k, a, sh.k, 0, op, acc, Epilogue{}, Into(got, sh.n, 0), workers)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("workers=%d: element %d = %v, want %v (bit-for-bit)",
									workers, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestGemmInPlaceMatchesPacked asserts that reading a gathered matrix in
// place is bit-for-bit the product of the same matrix packed: every run-4
// product against the run-1 description of the same elements, whose blocks
// are gathered element by element into panels. Two instances share one A,
// with and without a bias, at ragged n and K on both sides of kcBlock.
func TestGemmInPlaceMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const count, srcLen = 2, 9000
	src := randMat(rng, count*srcLen)
	for _, m := range []int{1, 3, 8, 65} {
		for _, k := range []int{1, 27, kcBlock, kcBlock + 1, 864} {
			for _, nStarts := range []int{1, 3, 13, 67} {
				n := 4 * nStarts
				rows, starts := make([]int, k), make([]int, nStarts)
				for i := range rows {
					rows[i] = rng.Intn(6000)
				}
				for i := range starts {
					starts[i] = rng.Intn(2900)
				}
				each := make([]int, n) // the run-1 description: one start per column
				for j := range each {
					each[j] = starts[j/4] + j%4
				}
				inPlace := NewGathered(rows, starts, 4).Operand(src, srcLen)
				packed := NewGathered(rows, each, 1).Operand(src, srcLen)
				a := randMat(rng, m*k)
				for _, bias := range [][]float32{nil, randMat(rng, m)} {
					want := make([]float32, count*m*n)
					GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, packed, false, Epilogue{Bias: bias}, Into(want, n, m*n), 1)
					for _, workers := range []int{1, 2, 4} {
						got := randMat(rng, count*m*n)
						GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, inPlace, false, Epilogue{Bias: bias}, Into(got, n, m*n), workers)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("m=%d k=%d n=%d bias=%v workers=%d: element %d = %v, want %v (bit-for-bit)",
									m, k, n, bias != nil, workers, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmBatchMatchesSequential asserts GemmBatch is bit-for-bit equal to
// count sequential Gemm calls, at any worker budget — what makes the
// batch-parallel backward-weights pass worker-count invariant.
func TestGemmBatchMatchesSequential(t *testing.T) {
	const count, m, n, k = 5, 16, 216, 300 // backward-weights-like: n fits one block
	rng := rand.New(rand.NewSource(13))
	as := randMat(rng, count*m*k)
	bs := randMat(rng, count*n*k) // transB: stored n×k
	seed := randMat(rng, count*m*n)
	want := append([]float32(nil), seed...)
	for i := 0; i < count; i++ {
		Gemm(false, true, m, n, k, as[i*m*k:], k, bs[i*n*k:], k, true, want[i*m*n:], n, 1)
	}
	for _, workers := range []int{1, 2, 7, 16} {
		got := append([]float32(nil), seed...)
		GemmBatch(new(tensor.Workspace), count, false, m, n, k, as, k, m*k, Dense(true, bs, k, n*k),
			true, Epilogue{}, Into(got, n, m*n), workers)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: instance %d element %d = %v, want %v (bit-for-bit)",
					workers, j/(m*n), j%(m*n), got[j], want[j])
			}
		}
	}
}

// TestGemmBatchBiasMatchesSeededAccumulate asserts the bias form — added by
// the store of the first K slice — is bit-for-bit a C filled with the
// per-row bias and the product accumulated onto it, across K slices, ragged
// tiles and worker budgets: what lets the convolution forward make no bias
// pass without moving a bit.
func TestGemmBatchBiasMatchesSeededAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range []struct{ count, m, n, k int }{
		{2, 8, 4096, 108}, // a bench_net body site, per sample
		{3, 5, 300, 2*kcBlock + 7},
		{1, 1, 17, 1},
		{2, 66, 2*ncBlock + 3, 40},
	} {
		bias := randMat(rng, sh.m)
		mk, kn, mn := sh.m*sh.k, sh.k*sh.n, sh.m*sh.n
		as, bs := randMat(rng, sh.count*mk), randMat(rng, sh.count*kn)
		want := make([]float32, sh.count*mn)
		for j := range want {
			want[j] = bias[j%mn/sh.n]
		}
		for i := 0; i < sh.count; i++ {
			Gemm(false, false, sh.m, sh.n, sh.k, as[i*mk:], sh.k, bs[i*kn:], sh.n, true, want[i*mn:], sh.n, 1)
		}
		for _, workers := range []int{1, 2, 7} {
			got := randMat(rng, sh.count*mn) // stale contents must not leak through
			GemmBatch(new(tensor.Workspace), sh.count, false, sh.m, sh.n, sh.k, as, sh.k, mk, Dense(false, bs, sh.n, kn),
				false, Epilogue{Bias: bias}, Into(got, sh.n, mn), workers)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%+v workers=%d: instance %d element %d = %v, want %v (bit-for-bit)",
						sh, workers, j/mn, j%mn, got[j], want[j])
				}
			}
		}
	}
}

// TestGemmBatchEpilogueMatchesHelperPass asserts the full epilogue — bias
// on the first K slice's store, normalization and ReLU on the last's, by the
// microkernel for full tiles and in Go for ragged ones — is bit-for-bit a C
// filled with the bias, the product accumulated onto it and then a pass of
// the Go element helper: with and without a bias, over a packed and an
// in-place B, at ragged n, K on both sides of every slice boundary and any
// worker budget.
func TestGemmBatchEpilogueMatchesHelperPass(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const count, srcLen = 2, 9000
	src := randMat(rng, count*srcLen)
	for _, m := range []int{1, 3, 8, 65} {
		for _, k := range []int{1, 27, kcBlock, kcBlock + 1, 864} {
			rows := make([]int, k)
			for i := range rows {
				rows[i] = rng.Intn(6000)
			}
			type operand struct {
				n  int
				op Operand
			}
			var operands []operand
			for _, nStarts := range []int{3, 67} {
				starts := make([]int, nStarts)
				for i := range starts {
					starts[i] = rng.Intn(2900)
				}
				operands = append(operands, operand{4 * nStarts, NewGathered(rows, starts, 4).Operand(src, srcLen)})
			}
			for _, n := range []int{1, 17, 300} {
				operands = append(operands, operand{n, Dense(false, randMat(rng, count*k*n), n, k*n)})
			}
			a := randMat(rng, m*k)
			norm := testStats(rng, m)
			for _, o := range operands {
				n, op := o.n, o.op
				for _, bias := range [][]float32{randMat(rng, m), nil} {
					want := make([]float32, count*m*n)
					if bias != nil {
						for j := range want {
							want[j] = bias[j%(m*n)/n]
						}
					}
					GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, op, true, Epilogue{}, Into(want, n, m*n), 1)
					for j, v := range want {
						want[j] = norm.apply(v, j%(m*n)/n)
					}
					for _, workers := range []int{1, 2, 4} {
						got := randMat(rng, count*m*n) // stale contents must not leak through
						GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, op, false, Epilogue{Bias: bias, Norm: norm}, Into(got, n, m*n), workers)
						for j := range want {
							if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
								t.Fatalf("m=%d k=%d n=%d bias=%v workers=%d: element %d = %v, want %v (bit-for-bit)",
									m, k, n, bias != nil, workers, j, got[j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmStridedC checks that a C leading dimension wider than n leaves the
// gutter columns untouched by every C writer: the microkernel's direct
// stores of full tiles (which must stop at column n even when the last full
// panel ends there), the scalar merge of ragged edge tiles, and the k = 0
// zero-fill.
func TestGemmStridedC(t *testing.T) {
	cases := []struct{ m, n, k, ldc int }{
		{5, 6, 7, 9},
		{2*mr + 1, 2*nr + 5, 7, 2*nr + 9}, // full tiles, then a ragged row and column edge
		{2 * mr, 2 * nr, 7, 2*nr + 3},     // full tiles only, flush against the gutter
		{mr, nr, kcBlock + 5, nr + 1},     // accumulating second K slice
		{2*mr + 1, 2*nr + 5, 0, 2*nr + 9}, // zero-fill
	}
	for _, tc := range cases {
		for _, acc := range []bool{false, true} {
			t.Run(fmt.Sprintf("m%d_n%d_k%d_ldc%d_acc%v", tc.m, tc.n, tc.k, tc.ldc, acc), func(t *testing.T) {
				m, n, k, ldc := tc.m, tc.n, tc.k, tc.ldc
				rng := rand.New(rand.NewSource(5))
				a := randMat(rng, m*k)
				b := randMat(rng, k*n)
				c := randMat(rng, m*ldc)
				orig := append([]float32(nil), c...)
				want := make([]float32, m*n)
				for i := 0; i < m; i++ {
					copy(want[i*n:(i+1)*n], c[i*ldc:])
				}
				Gemm(false, false, m, n, k, a, k, b, n, acc, c, ldc, 1)
				naive(false, false, m, n, k, a, k, b, n, acc, want, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if d := math.Abs(float64(c[i*ldc+j] - want[i*n+j])); !(d <= tolFor(k)) {
							t.Fatalf("C[%d,%d] = %v, want %v", i, j, c[i*ldc+j], want[i*n+j])
						}
					}
					for j := n; j < ldc; j++ {
						if math.Float32bits(c[i*ldc+j]) != math.Float32bits(orig[i*ldc+j]) {
							t.Fatalf("gutter C[%d,%d] overwritten: %v, was %v", i, j, c[i*ldc+j], orig[i*ldc+j])
						}
					}
				}
			})
		}
	}
}

func TestGemmZeroK(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	Gemm(false, false, 2, 2, 0, nil, 1, nil, 1, false, c, 2, 1)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("k=0 without accumulate must zero C, got %v at %d", v, i)
		}
	}
	c = []float32{1, 2, 3, 4}
	Gemm(false, false, 2, 2, 0, nil, 1, nil, 1, true, c, 2, 1)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("k=0 with accumulate must leave C, got %v", c)
	}
}

// BenchmarkGemm times the three GEMMs one 3×3×3 convolution of the
// benchmark U-Net lowers to (IC 8, OC 16, 16³ voxels) and reports GFLOP/s.
func BenchmarkGemm(b *testing.B) {
	shapes := []struct {
		name           string
		transA, transB bool
		m, n, k        int
	}{
		// [OC × IC·K³] · [IC·K³ × D·H·W]
		{"forward", false, false, 16, 4096, 216},
		// [IC·K³ × OC] · [OC × D·H·W], A stored transposed: K is only OC.
		{"backward_input", true, false, 216, 4096, 16},
		// [OC × D·H·W] · [D·H·W × IC·K³], B stored transposed.
		{"backward_weights", false, true, 16, 216, 4096},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		a := randMat(rng, sh.m*sh.k)
		bb := randMat(rng, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		lda, ldb := sh.k, sh.n
		if sh.transA {
			lda = sh.m
		}
		if sh.transB {
			ldb = sh.k
		}
		flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Gemm(sh.transA, sh.transB, sh.m, sh.n, sh.k, a, lda, bb, ldb, false, c, sh.n, workers)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
