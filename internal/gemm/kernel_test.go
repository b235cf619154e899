package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/tensor"
)

// specials are the float32 values whose handling differs between a correct
// and a sloppy kernel: signed zeros, infinities, NaN, the subnormal range
// and the overflow edge.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-42,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// randSpecial returns n floats, about one in eight drawn from specials.
func randSpecial(rng *rand.Rand, n int) []float32 {
	m := randMat(rng, n)
	for i := range m {
		if rng.Intn(8) == 0 {
			m[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// sameBits reports whether two floats are the same value bit for bit. NaNs
// compare equal whatever their payload: which operand's payload survives
// NaN ∘ NaN depends on operand order, which neither the compiler nor IEEE
// 754 pins down, and nothing downstream looks at it.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// testStats returns the statistics of a normalizing store over n rows that
// visit the edge cases: row 0 has zero variance (rstd = 1/√ε), γ is 0 on
// row 1 and negative on row 2, and the rest are drawn at random.
func testStats(rng *rand.Rand, n int) Norm {
	const eps = 1e-5
	s := Norm{make([]float64, n), make([]float64, n), make([]float32, n), make([]float32, n)}
	for r := range n {
		variance, gamma := 0.2+rng.Float64(), float32(rng.NormFloat64())
		switch r % 4 {
		case 0:
			variance = 0
		case 1:
			gamma = 0
		case 2:
			gamma = -float32(math.Abs(float64(gamma))) - 0.1
		}
		s.Mean[r], s.Rstd[r] = rng.NormFloat64(), 1/math.Sqrt(variance+eps)
		s.Gamma[r], s.Beta[r] = gamma, float32(rng.NormFloat64())
	}
	return s
}

// kernelStores are the ways the microkernel stores its tile, by subtest
// name: over C, added to C, plus the row bias (the first K slice of a biased
// product), plus the bias and then normalized (a one-slice product with the
// full epilogue), and added to C and then normalized (the last of several).
var kernelStores = []struct {
	name          string
	add, bias, bn bool
}{
	{"overwritefalse", true, false, false},
	{"overwritetrue", false, false, false},
	{"bias", false, true, false},
	{"biasnorm", false, true, true},
	{"addnorm", true, false, true},
}

// oneTile runs the tile kernelGo(a, b, rows, quads, c, ldc, st) computes as
// a tileRun of one tile, through runTiles: into the mr×nr block at the head
// of c, rows ldc apart, or, when st is scattered, through its rows and
// starts into the whole of c.
func oneTile(a, b []float32, rows []int, quads *[4]int, c []float32, ldc int, st *tileStore) {
	t := tileRun{a: a[:len(rows)*mr], b: b, rows: rows, quads: quads[:], c: c, ldc: ldc,
		st: []tileStore{*st}, rowPanels: 1, colPanels: 1}
	if st.rows != nil {
		t.ldc, t.cstarts = 0, st.starts[:]
	}
	runTiles(&t)
}

// TestAsmKernelMatchesPortable pins the claim the whole package rests on:
// the assembly microkernel and kernelGo produce the same tile, bit for bit,
// from the same operands — including over non-finite and subnormal inputs —
// and write nothing outside it, through every store (kernelStores). The pw
// subtests read B as a packed panel; the inplace ones read it through
// scattered offsets, with the 4-float runs paired (one 32-byte load per
// half), unpaired, half paired, and as the ragged last panel of a block,
// whose dead lanes repeat lane 0.
func TestAsmKernelMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly microkernel on this CPU/architecture: kernelGo is the live kernel")
	}
	var ts tileStore
	if offs := [...]uintptr{unsafe.Offsetof(ts.add), unsafe.Offsetof(ts.bias), unsafe.Offsetof(ts.gamma),
		unsafe.Offsetof(ts.beta), unsafe.Offsetof(ts.mean), unsafe.Offsetof(ts.rstd)}; offs != [...]uintptr{0, 8, 16, 24, 32, 40} {
		t.Fatalf("tileStore field offsets %v, but kernel_amd64.s reads 0, 8, 16, 24, 32, 40", offs)
	}
	var tr tileRun
	if offs := [...]uintptr{unsafe.Offsetof(tr.a), unsafe.Offsetof(tr.b), unsafe.Offsetof(tr.rows), unsafe.Offsetof(tr.quads),
		unsafe.Offsetof(tr.c), unsafe.Offsetof(tr.ldc), unsafe.Offsetof(tr.cstarts), unsafe.Offsetof(tr.st),
		unsafe.Offsetof(tr.rowPanels), unsafe.Offsetof(tr.colPanels)}; offs != [...]uintptr{0, 24, 48, 72, 96, 120, 128, 152, 176, 184} {
		t.Fatalf("tileRun field offsets %v, but kernel_amd64.s reads 0, 24, 48, 72, 96, 120, 128, 152, 176, 184", offs)
	}
	const ldc = nr + 3
	gens := []struct {
		name string
		fn   func(*rand.Rand, int) []float32
	}{{"normal", randMat}, {"special", randSpecial}}
	check := func(t *testing.T, a, b []float32, rows []int, quads *[4]int, seed []float32, ts *tileStore) {
		want := append([]float32(nil), seed...)
		got := append([]float32(nil), seed...)
		kernelGo(a, b, rows, quads, want, ldc, ts)
		oneTile(a, b, rows, quads, got, ldc, ts)
		// Every element, gutter columns included: kernelGo leaves those
		// alone, so the assembly must too.
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("C[%d,%d]: asm %v (%#08x), portable %v (%#08x)", i/ldc, i%ldc,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	// tileFor draws the store a kernelStores entry describes, its bias and
	// statistics from gen.
	tileFor := func(rng *rand.Rand, gen func(*rand.Rand, int) []float32, add, bias, bn bool) *tileStore {
		st := store{add: add}
		if bias {
			st.bias = gen(rng, mr)
		}
		if bn {
			st.norm = testStats(rng, mr)
		}
		ts := st.tile(0)
		return &ts
	}
	for _, pw := range []int{0, 1, 2, 3, 7, kcBlock - 1, kcBlock} {
		for _, sk := range kernelStores {
			for _, gen := range gens {
				t.Run(fmt.Sprintf("pw%d_%s_%s", pw, sk.name, gen.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(17 + pw)))
					a := gen.fn(rng, pw*mr)
					b := gen.fn(rng, pw*nr)
					seed := gen.fn(rng, mr*ldc)
					blk := bBlock{b: b, rows: panelRows[:pw]}
					quads := blk.quads(0)
					check(t, a, b, blk.rows, &quads, seed, tileFor(rng, gen.fn, sk.add, sk.bias, sk.bn))
				})
			}
		}
	}
	const srcLen, offLimit, quadLimit = 6000, 4000, 1900
	layouts := map[string]func(rng *rand.Rand) [4]int{
		"paired": func(rng *rand.Rand) [4]int {
			q0, q2 := rng.Intn(quadLimit), rng.Intn(quadLimit)
			return [4]int{q0, q0 + 4, q2, q2 + 4}
		},
		"unpaired": func(rng *rand.Rand) [4]int {
			return [4]int{rng.Intn(quadLimit), rng.Intn(quadLimit), rng.Intn(quadLimit), rng.Intn(quadLimit)}
		},
		"halfpaired": func(rng *rand.Rand) [4]int {
			q0 := rng.Intn(quadLimit)
			return [4]int{q0, q0 + 4, q0 + 8, q0 + 13}
		},
	}
	for live := 1; live < 4; live++ {
		layouts[fmt.Sprintf("ragged%d", live)] = func(rng *rand.Rand) [4]int {
			starts := make([]int, live)
			for i := range starts {
				starts[i] = 4 * i
			}
			starts[0] += rng.Intn(quadLimit)
			return (&bBlock{starts: starts}).quads(0)
		}
	}
	for _, pw := range []int{0, 1, 2, 3, 7, 27, 216, kcBlock - 1, kcBlock} {
		for name, layout := range layouts {
			for _, sk := range kernelStores {
				for _, gen := range gens {
					t.Run(fmt.Sprintf("inplace_pw%d_%s_%s_%s", pw, name, sk.name, gen.name), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(41 + pw)))
						a := gen.fn(rng, pw*mr)
						src := gen.fn(rng, srcLen)
						rows := make([]int, pw)
						for p := range rows {
							rows[p] = rng.Intn(offLimit)
						}
						quads := layout(rng)
						seed := gen.fn(rng, mr*ldc)
						check(t, a, src, rows, &quads, seed, tileFor(rng, gen.fn, sk.add, sk.bias, sk.bn))
					})
				}
			}
		}
	}
}

// TestPackersMatchContract checks packA and packB against the layout they
// document, element by element, over every path: row-major and transposed
// sources, full and ragged panels, and K extents around the assembly
// transpose's 8-step block.
func TestPackersMatchContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const maxP, maxE, off = 400, 2*nr + 5, 3
	src := randMat(rng, (maxP+off)*(maxE+off)+maxP+maxE)
	for _, trans := range []bool{false, true} {
		for _, pw := range []int{1, 7, 8, 9, 16, 27, kcBlock} {
			for _, ew := range []int{1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1, 2*nr + 5} {
				// op(X)[p, e] = src[p·sp + e·se] with a leading dimension
				// wider than the block, read at an offset (p0, e0) = (off, off).
				ld := maxE + off
				sp, se := ld, 1
				if trans {
					ld = maxP + off
					sp, se = 1, ld
				}
				at := func(p, e int) float32 { return src[(off+p)*sp+(off+e)*se] }

				dst := randMat(rng, pw*(ew+nr))
				packB(trans, src, ld, off, pw, off, ew, dst)
				checkPanels(t, fmt.Sprintf("packB trans=%v pw=%d jw=%d", trans, pw, ew), dst, nr, pw, ew, at)

				// packA's trans flag describes op(A)[i, p]: rows are the
				// panel dimension, so the roles of the two strides swap.
				dst = randMat(rng, pw*(ew+mr))
				packA(!trans, src, ld, off, ew, off, pw, dst)
				checkPanels(t, fmt.Sprintf("packA trans=%v pw=%d iw=%d", !trans, pw, ew), dst, mr, pw, ew, at)
			}
		}
	}
}

// checkPanels asserts dst holds the width-wide panels of the pw×ew block
// at(p, e): dst[panel·pw·width + p·width + x] = at(p, panel·width+x), zero
// past ew.
func checkPanels(t *testing.T, name string, dst []float32, width, pw, ew int, at func(p, e int) float32) {
	t.Helper()
	for panel := 0; panel*width < ew; panel++ {
		for p := 0; p < pw; p++ {
			for x := 0; x < width; x++ {
				var want float32
				if e := panel*width + x; e < ew {
					want = at(p, e)
				}
				if got := dst[panel*pw*width+p*width+x]; !sameBits(got, want) {
					t.Fatalf("%s: panel %d step %d lane %d = %v, want %v", name, panel, p, x, got, want)
				}
			}
		}
	}
}

// TestPackGatheredMatchesContract checks the B blocks of a gathered operand
// against the matrix it describes, element by element, for the vector run
// length and the per-element one, blocks at the origin and off it, and row
// and column counts that leave full, ragged and single-lane last panels:
// packed panels padding lanes included, and the in-place view of a run-4 V
// through the offsets the microkernel reads.
func TestPackGatheredMatchesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := randMat(rng, 6000)
	for _, run := range []int{1, 4} {
		for _, nRows := range []int{1, nr - 1, nr, nr + 1, 3*nr + 12, 40} {
			for _, nStarts := range []int{1, 3, 4, 5, 2 * nr / run, 2*nr/run + 1} {
				rows, starts := make([]int, nRows), make([]int, nStarts)
				for i := range rows {
					rows[i] = rng.Intn(4000)
				}
				for i := range starts {
					starts[i] = rng.Intn(1900)
				}
				v := func(r, c int) float32 { return src[rows[r]+starts[c/run]+c%run] }
				kdim, n := nRows, nStarts*run
				op := NewGathered(rows, starts, run).Operand(src, 0)
				for _, off := range []int{0, 4} {
					// A block starts on a run boundary of the starts' axis.
					p0, j0 := min(off, kdim-1), min(off, n-run)
					pw, jw := kdim-p0, n-j0
					name := fmt.Sprintf("run=%d rows=%d starts=%d at (%d,%d)", run, nRows, nStarts, p0, j0)
					blk := op.block(0, p0, pw, j0, jw, randMat(rng, pw*(jw+nr)))
					checkBlock(t, name, &blk, pw, jw, func(p, e int) float32 { return v(p0+p, j0+e) })
				}
			}
		}
	}
}

// checkBlock asserts the microkernel's view of blk is the pw×jw block at(p,
// e): lane x of panel jp at K step p is blk.b[blk.rows[p] + quads[x/4] +
// x%4] with quads = blk.quads(jp). Past jw a packed block holds zeros; an
// in-place one reads whatever its repeated first run holds, never merged.
func checkBlock(t *testing.T, name string, blk *bBlock, pw, jw int, at func(p, e int) float32) {
	t.Helper()
	if len(blk.rows) != pw {
		t.Fatalf("%s: %d K steps, want %d", name, len(blk.rows), pw)
	}
	for jp := 0; jp*nr < jw; jp++ {
		quads := blk.quads(jp)
		for p := 0; p < pw; p++ {
			for x := 0; x < nr; x++ {
				e := jp*nr + x
				if e >= jw && blk.starts != nil {
					continue
				}
				var want float32
				if e < jw {
					want = at(p, e)
				}
				if got := blk.b[blk.rows[p]+quads[x/4]+x%4]; !sameBits(got, want) {
					t.Fatalf("%s: panel %d step %d lane %d = %v, want %v", name, jp, p, x, got, want)
				}
			}
		}
	}
}

// TestPackGatheredRejectsOutOfRange: the offsets are the caller's, and the
// assembly that reads a gathered operand in place checks nothing, so offsets
// that leave the source must panic before any element moves: a negative pair
// when the tables are made, one past the end of any instance's source when a
// product is asked for.
func TestPackGatheredRejectsOutOfRange(t *testing.T) {
	src := make([]float32, 100)
	c := make([]float32, 2*4*12)
	a := make([]float32, 4*24)
	product := func(count, stride int, rows, starts []int) func() {
		return func() {
			g := NewGathered(rows, starts, 4)
			k, n := len(rows), 4*len(starts)
			GemmBatch(new(tensor.Workspace), count, false, 1, n, k, a, k, 0, g.Operand(src, stride),
				false, Epilogue{}, Into(c, n, n), 1)
		}
	}
	for name, call := range map[string]func(){
		"past the end":        product(1, 0, []int{0, 90}, []int{0, 4, 7}),
		"negative row":        product(1, 0, []int{3, -8}, []int{4}),
		"negative start":      product(1, 0, []int{3, 8}, []int{-12, 4}),
		"last instance's end": product(2, 50, []int{0, 40}, []int{0, 4, 7}),
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
	// The last case's first instance alone is in range.
	product(1, 50, []int{0, 40}, []int{0, 4, 7})()
}

// TestSharedPackMatchesPackWhole: a shared A packed over (K slice × row
// panel) on any worker budget is bit for bit the serial packWhole, for row
// counts around the panel height and depths around the K slice. The buffer
// starts as noise, so a float left unwritten shows too.
func TestSharedPackMatchesPackWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, trans := range []bool{false, true} {
		for _, m := range []int{1, 3, 4, 5, 8, 65} {
			for _, k := range []int{1, 383, 384, 385, 864} {
				lda := k
				if trans {
					lda = m
				}
				a := randMat(rng, m*k)
				mPad := (m + mr - 1) / mr * mr
				want := randMat(rng, mPad*k)
				packWhole(trans, m, k, mPad, a, lda, want)
				for _, workers := range []int{1, 2, 4} {
					got := randMat(rng, mPad*k)
					packShared(trans, m, k, mPad, a, lda, got, workers)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("trans=%v m=%d k=%d workers=%d: element %d = %v, want %v", trans, m, k, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
