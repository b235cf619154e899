package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/tensor"
)

// scatterLayout builds a scattered destination of m rows and n columns that
// gives every element an offset of its own, inside m slots of width
// floats: row r starts at a slot of its own (or, paired, at
// its pair's slot plus r%2, the two rows interleaving as a stride-2 store's
// kx taps do), and the column runs sit at distinct multiples of run·step
// within the slot. broken swaps the rows of every third pair, so those
// tiles lose the adjacency the assembly's store needs. Every offset is
// shifted by 3 so nothing is aligned.
func scatterLayout(rng *rand.Rand, m, n, run, step int, paired, broken bool) (rows, starts []int, span int) {
	nStarts := n / run
	width := nStarts * run * step
	if paired {
		width *= 2
	}
	slots := rng.Perm(m)
	rows = make([]int, m)
	for r := range rows {
		if paired {
			rows[r] = 3 + slots[r/2]*width + r%2
			if broken && r/2%3 == 0 && r^1 < m {
				rows[r] = 3 + slots[r/2]*width + (r^1)%2
			}
		} else {
			rows[r] = 3 + slots[r]*width
		}
	}
	spacing := run * step
	if paired {
		spacing *= 2
	}
	starts = make([]int, nStarts)
	for v, q := range rng.Perm(nStarts) {
		starts[v] = q * spacing
	}
	return rows, starts, 3 + m*width
}

// TestGemmScatteredMatchesDense asserts the scattered-C contract: a product
// stored through a Scattered target is bit-for-bit the dense product with
// the same epilogue followed by a reference scatter, and writes nothing
// else. It covers runs of 4 at steps 1, 2 (paired rows, the assembly's
// store; and pairs broken, the Go store) and 3, one start per column,
// ragged rows and columns, a bias, a normalization, K on both sides of
// kcBlock (later slices add through the Go store) and accumulation, at
// several worker budgets with two instances.
func TestGemmScatteredMatchesDense(t *testing.T) {
	layouts := []struct {
		name           string
		run, step      int
		paired, broken bool
	}{
		{"run4_step1", 4, 1, false, false},
		{"run4_step2_paired", 4, 2, true, false},
		{"run4_step2_broken", 4, 2, true, true},
		{"run4_step2_unpaired", 4, 2, false, false},
		{"run4_step3", 4, 3, false, false},
		{"run1", 1, 1, false, false},
	}
	shapes := []struct{ m, n, k int }{
		{16, 64, 32},
		{8, 512, 16},
		{7, 20, 5},
		{64 + 6, ncBlock + 36, kcBlock + 3},
		{2, 4, 1},
	}
	const count = 2
	for _, ly := range layouts {
		for _, sh := range shapes {
			for _, ep := range []string{"plain", "bias", "biasnorm", "acc"} {
				t.Run(fmt.Sprintf("%s_m%d_n%d_k%d_%s", ly.name, sh.m, sh.n, sh.k, ep), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.n + sh.k)))
					m, n, k := sh.m, sh.n, sh.k
					a := randSpecial(rng, m*k)
					b := randSpecial(rng, count*k*n)
					var e Epilogue
					acc := ep == "acc"
					if ep != "plain" && !acc {
						e.Bias = randSpecial(rng, m)
					}
					if ep == "biasnorm" {
						e.Norm = testStats(rng, m)
					}
					rows, starts, span := scatterLayout(rng, m, n, ly.run, ly.step, ly.paired, ly.broken)
					stride := span + 5
					seed := randMat(rng, count*stride)
					// The reference: the dense product over C holding what the
					// scattered destination holds where it is stored, then the
					// scatter.
					s := NewScattered(rows, starts, ly.run, ly.step)
					tgt := s.Into(nil, stride)
					dense := make([]float32, count*m*n)
					for i := 0; i < count; i++ {
						for r := 0; r < m; r++ {
							for j := 0; j < n; j++ {
								dense[(i*m+r)*n+j] = seed[i*stride+tgt.row(r)+tgt.col(j)]
							}
						}
					}
					GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, Dense(false, b, n, k*n), acc, e, Into(dense, n, m*n), 1)
					want := append([]float32(nil), seed...)
					for i := 0; i < count; i++ {
						for r := 0; r < m; r++ {
							for j := 0; j < n; j++ {
								want[i*stride+rows[r]+starts[j/ly.run]+j%ly.run*ly.step] = dense[(i*m+r)*n+j]
							}
						}
					}
					for _, workers := range []int{1, 2, 4} {
						got := append([]float32(nil), seed...)
						GemmBatch(new(tensor.Workspace), count, false, m, n, k, a, k, 0, Dense(false, b, n, k*n), acc, e, s.Into(got, stride), workers)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("workers=%d: destination %d = %v (%#08x), want %v (%#08x)", workers, i,
									got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				})
			}
		}
	}
}

// TestAsmScatterStoreMatchesPortable holds the assembly's scattered store —
// two row pairs interleaved into 8-float runs — to kernelGo's, through every
// store a scattered tile takes (over, with a bias, with bias and
// normalization), over non-finite inputs, and checks that both write
// exactly the tile's 64 offsets.
func TestAsmScatterStoreMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly microkernel on this CPU/architecture: kernelGo is the live kernel")
	}
	var ts tileStore
	if offs := [...]uintptr{unsafe.Offsetof(ts.step), unsafe.Offsetof(ts.rows), unsafe.Offsetof(ts.starts)}; offs != [...]uintptr{1, 48, 56} {
		t.Fatalf("tileStore step, rows, starts at %v, want 1, 48, 56: kernel_amd64.s reads the first two", offs)
	}
	if size := unsafe.Sizeof(ts); size != 64 {
		t.Fatalf("tileStore is %d bytes: past 64, macroKernel's copies of it go through runtime.duffcopy", size)
	}
	const dstLen = 3000
	for _, pw := range []int{0, 1, 7, 32, kcBlock} {
		for _, sk := range kernelStores {
			if sk.add {
				continue // a scattered tile is never added
			}
			t.Run(fmt.Sprintf("pw%d_%s", pw, sk.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(5 + pw)))
				a := randSpecial(rng, pw*mr)
				b := randSpecial(rng, pw*nr)
				blk := bBlock{b: b, rows: panelRows[:pw]}
				quads := blk.quads(0)
				st := store{}
				if sk.bias {
					st.bias = randSpecial(rng, mr)
				}
				if sk.bn {
					st.norm = testStats(rng, mr)
				}
				tile := st.tile(0)
				// Runs at distinct multiples of 8 below 256 for the first
				// pair, and the second pair 256 or more further on.
				base := rng.Intn(1000)
				rows := [mr]int{base, base + 1, base + 256 + 8*rng.Intn(100), 0}
				rows[3] = rows[2] + 1
				var starts [4]int
				for q, s := range rng.Perm(32)[:4] {
					starts[q] = 8 * s
				}
				tile.rows, tile.starts, tile.step = &rows, &starts, 2
				seed := randMat(rng, dstLen)
				want := append([]float32(nil), seed...)
				got := append([]float32(nil), seed...)
				kernelGo(a, b, blk.rows, &quads, want, 0, &tile)
				oneTile(a, b, blk.rows, &quads, got, 0, &tile)
				written := 0
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("destination %d: asm %v (%#08x), portable %v (%#08x)", i,
							got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
					if math.Float32bits(want[i]) != math.Float32bits(seed[i]) {
						written++
					}
				}
				if pw > 0 && written < mr*nr/2 {
					t.Fatalf("only %d of the tile's %d offsets changed", written, mr*nr)
				}
			})
		}
	}
}

// TestAsmScatterStep1StoreMatchesPortable holds the assembly's step-1
// scattered store — each row's four 4-float runs written, or added onto,
// where they lie, as a convolution stores into the interior of a haloed
// buffer — to kernelGo's, through every store a tile takes (kernelStores:
// over, added, with a bias, with bias and normalization, added and
// normalized), at K depths from none to a full slice, over non-finite
// inputs, with rows in no order and runs both contiguous (a volume row a
// multiple of 16 wide) and apart. Both must write exactly the tile's 64
// offsets. Ragged tiles never reach the assembly's store: the Go merge
// stores them, and TestGemmScatteredMatchesDense holds whole step-1
// products, ragged tiles and later K slices included, to the dense product.
func TestAsmScatterStep1StoreMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly microkernel on this CPU/architecture: kernelGo is the live kernel")
	}
	const dstLen = 4000
	for _, pw := range []int{0, 1, 7, 32, kcBlock} {
		for _, sk := range kernelStores {
			for _, contiguous := range []bool{true, false} {
				t.Run(fmt.Sprintf("pw%d_%s_contiguous%v", pw, sk.name, contiguous), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(11 + pw)))
					a := randSpecial(rng, pw*mr)
					b := randSpecial(rng, pw*nr)
					blk := bBlock{b: b, rows: panelRows[:pw]}
					quads := blk.quads(0)
					st := store{add: sk.add}
					if sk.bias {
						st.bias = randSpecial(rng, mr)
					}
					if sk.bn {
						st.norm = testStats(rng, mr)
					}
					tile := st.tile(0)
					// Each row in a 200-float slot of its own, the slots in
					// random order and off any alignment; the runs within.
					var rows [mr]int
					for i, slot := range rng.Perm(16)[:mr] {
						rows[i] = 3 + 200*slot + rng.Intn(20)
					}
					var starts [4]int
					for q, s := range rng.Perm(40)[:4] {
						starts[q] = 4 * s
						if contiguous {
							starts[q] = 4 * q
						}
					}
					tile.rows, tile.starts, tile.step = &rows, &starts, 1
					seed := randMat(rng, dstLen)
					want := append([]float32(nil), seed...)
					got := append([]float32(nil), seed...)
					kernelGo(a, b, blk.rows, &quads, want, 0, &tile)
					oneTile(a, b, blk.rows, &quads, got, 0, &tile)
					tileAt := map[int]bool{}
					for i := range rows {
						for q := range starts {
							for e := 0; e < 4; e++ {
								tileAt[rows[i]+starts[q]+e] = true
							}
						}
					}
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("destination %d: asm %v (%#08x), portable %v (%#08x)", i,
								got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
						if !tileAt[i] && math.Float32bits(got[i]) != math.Float32bits(seed[i]) {
							t.Fatalf("destination %d is outside the tile but was written", i)
						}
					}
				})
			}
		}
	}
}

// TestScatteredRejectsOutOfRange: the offsets are the caller's, and the
// assembly that stores through them checks nothing, so offsets that leave
// the destination must panic before any element is stored: a negative pair
// when the tables are made, one past the end of any instance's destination,
// or tables of another shape, when a product is asked for — and so must a
// zero Scattered, whose tables no one made, when it is made a target.
func TestScatteredRejectsOutOfRange(t *testing.T) {
	dst := make([]float32, 100)
	a := make([]float32, 2*3)
	b := make([]float32, 3*16)
	product := func(count, stride int, rows, starts []int, run, step int) func() {
		return func() {
			s := NewScattered(rows, starts, run, step)
			GemmBatch(new(tensor.Workspace), count, false, 2, 8, 3, a, 3, 0, Dense(false, b, 8, 0),
				false, Epilogue{}, s.Into(dst, stride), 1)
		}
	}
	for name, call := range map[string]func(){
		"past the end":        product(1, 0, []int{0, 95}, []int{0, 4}, 4, 1),
		"step past the end":   product(1, 0, []int{0, 85}, []int{0, 8}, 4, 3),
		"negative row":        product(1, 0, []int{3, -8}, []int{4, 0}, 4, 1),
		"negative start":      product(1, 0, []int{3, 8}, []int{-12, 4}, 4, 1),
		"last instance's end": product(2, 50, []int{0, 45}, []int{0, 4}, 4, 1),
		"rows of another m":   product(1, 0, []int{0, 20, 40}, []int{0, 4}, 4, 1),
		"starts of another n": product(1, 0, []int{0, 40}, []int{0, 4, 8}, 4, 1),
		"run 2":               product(1, 0, []int{0, 40}, []int{0, 2, 4, 6}, 2, 1),
		"step 0":              product(1, 0, []int{0, 40}, []int{0, 4}, 4, 0),
		"zero Scattered": func() {
			GemmBatch(new(tensor.Workspace), 1, false, 2, 8, 3, a, 3, 0, Dense(false, b, 8, 0),
				false, Epilogue{}, Scattered{}.Into(dst, 0), 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the product did not panic", name)
				}
			}()
			call()
		}()
	}
	// The last-instance case's first instance alone is in range, so is the
	// step case at step 1, and so is a run-1 table of one start per column.
	product(1, 50, []int{0, 45}, []int{0, 4}, 4, 1)()
	product(1, 0, []int{0, 85}, []int{0, 8}, 4, 1)()
	product(1, 0, []int{0, 40}, []int{0, 1, 2, 3, 8, 9, 10, 11}, 1, 1)()
}
