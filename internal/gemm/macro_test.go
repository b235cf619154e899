package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// macroKernelGo is macroKernel with every tile its own kernelGo call — the
// tile loop in Go, a full tile stored by kernelGo where macroKernel's
// tileRun stores it and any other computed into a buffer and merged by the
// Go store.
func macroKernelGo(iw, jw int, b *bBlock, c *Target, ci []float32, r0, j0 int, st *store) {
	var tile [mr * nr]float32
	for jp := 0; jp*nr < jw; jp++ {
		quads := b.quads(jp)
		packedA, steps := b.ops(b.class(jp), r0)
		pw := len(steps)
		j := j0 + jp*nr
		live := min(nr, jw-jp*nr)
		var starts [4]int
		if c.s.run == 4 && live == nr {
			starts = *(*[4]int)(c.s.starts[j/4:])
		}
		for ip := 0; ip*mr < iw; ip++ {
			ap := packedA[ip*pw*mr : (ip+1)*pw*mr]
			rows := min(mr, iw-ip*mr)
			r := r0 + ip*mr
			if rows == mr && live == nr {
				ts := st.tile(r)
				if c.s.run == 0 {
					kernelGo(ap, b.b, steps, &quads, ci[r*c.ldc+j:], c.ldc, &ts)
					continue
				}
				if c.scatterTile(st, r) {
					ts.rows, ts.starts, ts.step = (*[mr]int)(c.s.rows[r:]), &starts, uint8(c.s.step)
					kernelGo(ap, b.b, steps, &quads, ci, 0, &ts)
					continue
				}
			}
			kernelGo(ap, b.b, steps, &quads, tile[:], nr, &tileStore{})
			for ii := 0; ii < rows; ii++ {
				for jj, v := range tile[ii*nr:][:live] {
					at := c.row(r+ii) + c.col(j+jj)
					switch {
					case st.add:
						v = ci[at] + v
					case st.bias != nil:
						v = st.bias[r+ii] + v
					}
					if st.norm.Mean != nil {
						v = st.norm.apply(v, r+ii)
					}
					ci[at] = v
				}
			}
		}
	}
}

// macroProduct runs one m×n×k product through mk the way GemmBatch drives
// macroKernel: column blocks, K slices (later ones adding), row blocks.
func macroProduct(mk func(iw, jw int, b *bBlock, c *Target, ci []float32, r0, j0 int, st *store),
	m, n, k int, packedA []float32, op Operand, c Target, accumulate bool, ep Epilogue) {
	mPad := (m + mr - 1) / mr * mr
	panel := make([]float32, kcBlock*ncBlock)
	for j0 := 0; j0 < n; j0 += ncBlock {
		jw := min(ncBlock, n-j0)
		for p0 := 0; p0 < k; p0 += kcBlock {
			pw := min(kcBlock, k-p0)
			blk := op.block(0, p0, pw, j0, jw, panel)
			blk.a, blk.mPad = packedA, mPad
			st := store{add: p0 > 0 || accumulate}
			if p0 == 0 {
				st.bias = ep.Bias
			}
			if p0+pw == k {
				st.norm = ep.Norm
			}
			for i0 := 0; i0 < m; i0 += mcBlock {
				mk(min(mcBlock, m-i0), jw, &blk, &c, c.instance(0), i0, j0, &st)
			}
		}
	}
}

// TestMacroKernelMatchesGoLoop holds macroKernel — whose full tiles go to
// the microkernel as one tileRun, in one assembly call where AVX2 is live —
// to the same block multiplied tile by tile through kernelGo, bit for bit
// over non-finite inputs, the whole destination compared (so neither writes
// outside C). It covers ragged m, n and k, row blocks past mcBlock, column
// blocks past ncBlock, K over one to three kcBlock slices, B packed from a
// row-major or transposed matrix and read in place (runs paired as along a
// volume row, or anywhere), a dense C, and a scattered one at step 1, at
// step 2 (row pairs adjacent, the microkernel's store, or some broken, the
// Go store's) and with one start per column, through every store: over C,
// accumulating, with a bias, bias and normalization, and normalization
// alone.
func TestMacroKernelMatchesGoLoop(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{4, 16, 1},
		{7, 36, 27},
		{mcBlock + 6, 36, kcBlock + 16},
		{12, ncBlock + 20, 27},
		{9, 20, 2*kcBlock + 5},
	}
	operands := []string{"dense", "transposed", "inplace_rows", "inplace_anywhere"}
	layouts := []struct {
		name           string
		run, step      int
		paired, broken bool
	}{
		{"dense", 0, 0, false, false},
		{"step1", 4, 1, false, false},
		{"step2_paired", 4, 2, true, false},
		{"step2_broken", 4, 2, true, true},
		{"run1", 1, 1, false, false},
	}
	for _, sh := range shapes {
		for _, opName := range operands {
			for _, ly := range layouts {
				for _, sk := range []string{"over", "accumulate", "bias", "biasnorm", "norm"} {
					t.Run(fmt.Sprintf("m%d_n%d_k%d_%s_%s_%s", sh.m, sh.n, sh.k, opName, ly.name, sk), func(t *testing.T) {
						m, n, k := sh.m, sh.n, sh.k
						rng := rand.New(rand.NewSource(int64(m*7919 + n*31 + k)))
						mPad := (m + mr - 1) / mr * mr
						packedA := make([]float32, mPad*k)
						packWhole(false, m, k, mPad, randSpecial(rng, m*k), k, packedA)

						var op Operand
						switch opName {
						case "dense":
							op = Dense(false, randSpecial(rng, k*n), n, 0)
						case "transposed":
							op = Dense(true, randSpecial(rng, n*k), k, 0)
						default:
							rows, starts := make([]int, k), make([]int, n/4)
							for p := range rows {
								rows[p] = rng.Intn(3000)
							}
							for v := range starts {
								starts[v] = 4*v + 1
								if opName == "inplace_anywhere" {
									starts[v] = rng.Intn(2000)
								}
							}
							op = NewGathered(rows, starts, 4).Operand(randSpecial(rng, 6000), 0)
						}

						var ep Epilogue
						accumulate := sk == "accumulate"
						if sk == "bias" || sk == "biasnorm" {
							ep.Bias = randSpecial(rng, m)
						}
						if sk == "biasnorm" || sk == "norm" {
							ep.Norm = testStats(rng, m)
						}

						var seed []float32
						var target func(dst []float32) Target
						if ly.run == 0 {
							const gutter = 3
							seed = randMat(rng, m*(n+gutter))
							target = func(dst []float32) Target { return Into(dst, n+gutter, 0) }
						} else {
							rows, starts, span := scatterLayout(rng, m, n, ly.run, ly.step, ly.paired, ly.broken)
							s := NewScattered(rows, starts, ly.run, ly.step)
							seed = randMat(rng, span+5)
							target = func(dst []float32) Target { return s.Into(dst, 0) }
						}
						op.check(1, n, k)
						want := append([]float32(nil), seed...)
						got := append([]float32(nil), seed...)
						macroProduct(macroKernelGo, m, n, k, packedA, op, target(want), accumulate, ep)
						macroProduct(macroKernel, m, n, k, packedA, op, target(got), accumulate, ep)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("destination %d: macroKernel %v (%#08x), tile by tile %v (%#08x)", i,
									got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					})
				}
			}
		}
	}
}
