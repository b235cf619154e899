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
