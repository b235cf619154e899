package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// TestAsmKernelMatchesPortable pins the claim the whole package rests on:
// the assembly microkernel and kernelGo produce the same tile, bit for bit,
// from the same packed panels — including over non-finite and subnormal
// inputs — and writes nothing outside it.
func TestAsmKernelMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly microkernel on this CPU/architecture: kernelGo is the live kernel")
	}
	const ldc = nr + 3
	for _, pw := range []int{0, 1, 2, 3, 7, kcBlock - 1, kcBlock} {
		for _, overwrite := range []bool{false, true} {
			for _, gen := range []struct {
				name string
				fn   func(*rand.Rand, int) []float32
			}{{"normal", randMat}, {"special", randSpecial}} {
				t.Run(fmt.Sprintf("pw%d_overwrite%v_%s", pw, overwrite, gen.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(17 + pw)))
					a := gen.fn(rng, pw*mr)
					b := gen.fn(rng, pw*nr)
					seed := gen.fn(rng, mr*ldc)
					want := append([]float32(nil), seed...)
					got := append([]float32(nil), seed...)
					kernelGo(pw, a, b, want, ldc, overwrite)
					kernel(pw, a, b, got, ldc, overwrite)
					// Every element, gutter columns included: kernelGo leaves
					// those alone, so the assembly must too.
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("C[%d,%d]: asm %v (%#08x), portable %v (%#08x)", i/ldc, i%ldc,
								got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				})
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

// TestAsmGatherMatchesPortable holds the two assembly gather packers to the
// Go loops they replace, bit for bit (non-finite values included: a packer
// only moves floats), and checks they write nothing outside the panel.
func TestAsmGatherMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly packers on this CPU/architecture: the Go loops are the live ones")
	}
	rng := rand.New(rand.NewSource(29))
	src := randSpecial(rng, 5000)
	offsets := func(n, limit int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(limit)
		}
		return xs
	}
	for _, steps := range []int{0, 1, 2, 5, kcBlock / 4, kcBlock} {
		// K along rows: `steps` rows, one set of four quads.
		rows, quads := offsets(steps, 4000), offsets(4, 990)
		want := randMat(rng, steps*nr+2)
		got := append([]float32(nil), want...)
		gatherRowsGo(want[1:], src, rows, (*[4]int)(quads))
		gatherRows(got[1:], src, rows, (*[4]int)(quads))
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("gatherRows steps=%d: element %d = %v, want %v", steps, i-1, got[i], want[i])
			}
		}
		// K along quads: `steps` quads (4·steps K steps), sixteen rows.
		rows, quads = offsets(nr, 4000), offsets(steps, 990)
		want = randMat(rng, 4*steps*nr+2)
		got = append([]float32(nil), want...)
		gatherColsGo(want[1:], src, (*[nr]int)(rows), quads)
		gatherCols(got[1:], src, (*[nr]int)(rows), quads)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("gatherCols quads=%d: element %d = %v, want %v", steps, i-1, got[i], want[i])
			}
		}
	}
}

// TestPackGatheredMatchesContract checks PackGathered against the layout it
// documents, element by element and padding lanes included, for the vector
// run length and the per-element one, either orientation, and row and column
// counts that leave full, ragged and single-lane last panels.
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
				for _, trans := range []bool{false, true} {
					pw, ew := nRows, nStarts*run
					at := v
					if trans {
						pw, ew = ew, pw
						at = func(p, e int) float32 { return v(e, p) }
					}
					dst := randMat(rng, pw*(ew+nr))
					PackGathered(trans, dst, src, rows, starts, run)
					checkPanels(t, fmt.Sprintf("PackGathered trans=%v run=%d rows=%d starts=%d", trans, run, nRows, nStarts),
						dst, nr, pw, ew, at)
				}
			}
		}
	}
}

// TestPackGatheredRejectsOutOfRange: the offsets are the caller's, and the
// assembly behind run 4 checks nothing, so an offset pair that leaves src
// must panic before any element moves.
func TestPackGatheredRejectsOutOfRange(t *testing.T) {
	src := make([]float32, 100)
	dst := make([]float32, 4*nr)
	for name, call := range map[string]func(){
		"past the end": func() { PackGathered(false, dst, src, []int{0, 90}, []int{0, 4, 7}, 4) },
		"negative":     func() { PackGathered(true, dst, src, []int{3, -8}, []int{4}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PackGathered did not panic", name)
				}
			}()
			call()
		}()
	}
}
