package nn

import (
	"math"
	"math/rand"
	"testing"
)

// elementSpecials are the floats an element loop could round, compare or
// select differently from its Go oracle: NaN of both signs, ±Inf, ±0,
// subnormals and magnitudes at the edge of float32.
var elementSpecials = []float32{
	float32(math.NaN()), -float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32, 1e30, -1e30,
}

// elementInput returns n floats, about a third of them specials and the rest
// drawn from a normal distribution.
func elementInput(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = elementSpecials[rng.Intn(len(elementSpecials))]
		} else {
			v[i] = float32(rng.NormFloat64() * 2)
		}
	}
	return v
}

// gateInput returns n ReLU outputs for the gate: exactly +0, −0, NaN or
// negative where the gate closes, positive where it opens.
func gateInput(rng *rand.Rand, n int) []float32 {
	closed := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), -float32(math.NaN()), -1e-45, -2.5, float32(math.Inf(-1))}
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = closed[rng.Intn(len(closed))]
		} else {
			v[i] = float32(rng.ExpFloat64())
		}
	}
	return v
}

func clone(v []float32) []float32 { return append([]float32(nil), v...) }

// assertSameSums compares four reduction chains bit for bit, except that a
// NaN matches any NaN. Where two NaNs meet in an add or a multiply, x86
// returns the payload of the instruction's first operand, and the compiler
// picks that operand per register (the Go loop's four chains do not even
// agree among themselves), so a NaN sum's payload is not a property of the
// Go code. Everything else is.
func assertSameSums(t *testing.T, what string, want, got [4]float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) && !(math.IsNaN(want[j]) && math.IsNaN(got[j])) {
			t.Fatalf("%s: lane %d = %v (%#x), want %v (%#x)", what, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestElementwiseAsmMatchesGo holds each AVX2 element routine, with its Go
// tail, to its Go loop bit for bit at every length from 0 to 40, so every
// tail length meets every block count.
func TestElementwiseAsmMatchesGo(t *testing.T) {
	if !useAsm {
		t.Skip("no AVX2: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(32))
	const maxLen = 40

	// near returns n floats within a few hundred of c, which float32 holds
	// to a multiple of 64 at 1e9: where a formula computed in another order
	// cancels differently and so rounds to other bits.
	near := func(c float64) func(*rand.Rand, int) []float32 {
		return func(rng *rand.Rand, n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(c + rng.NormFloat64()*300)
			}
			return v
		}
	}
	minusOne := func(_ *rand.Rand, n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = -1
		}
		return v
	}

	t.Run("normRelu", func(t *testing.T) {
		params := []struct {
			mean, rstd  float64
			gamma, beta float32
			input       func(*rand.Rand, int) []float32
		}{
			{0.3, 1.7, 1.25, -0.5, elementInput},
			{-2, 1e5, -0.75, 0.125, elementInput},
			{1e-3, 3e-20, 1e-30, 0, elementInput},
			{1e9 + 0.3, 0.37, 1.5, 0.25, near(1e9)},
		}
		for _, p := range params {
			for n := 0; n <= maxLen; n++ {
				z := p.input(rng, n)
				wantZ, gotZ := clone(z), clone(z)
				wantY, gotY := make([]float32, n), make([]float32, n)
				normReluGo(wantZ, wantY, p.mean, p.rstd, p.gamma, p.beta)
				normRelu(gotZ, gotY, p.mean, p.rstd, p.gamma, p.beta)
				assertSameBits(t, "x̂", wantZ, gotZ)
				assertSameBits(t, "y", wantY, gotY)
			}
		}
	})

	t.Run("gatedInputGrad", func(t *testing.T) {
		params := []struct {
			k, m, sumDy, sumDyXhat float64
			xhat                   func(*rand.Rand, int) []float32
		}{
			{0.013, 37, -2.5, 4.25, elementInput},
			{-7e3, 1e6, 1e30, -3e-9, elementInput},
			{1e-300, 8, 0, 0, elementInput},
			// x̂·Σdy·x̂ = −(2⁵⁰ + 2) all but cancels Σdy = 2⁵⁰ − 1, whose
			// binade is half as coarse: subtracted in the other order, m·dy
			// would round to a multiple of 1/4 instead of 1/8.
			{0.5, 3, 1<<50 - 1, 1<<50 + 2, minusOne},
		}
		for _, p := range params {
			for n := 0; n <= maxLen; n++ {
				g, y, h := elementInput(rng, n), gateInput(rng, n), p.xhat(rng, n)
				want, got := clone(g), clone(g)
				gatedInputGradGo(want, y, h, p.k, p.m, p.sumDy, p.sumDyXhat)
				gatedInputGrad(got, y, h, p.k, p.m, p.sumDy, p.sumDyXhat)
				assertSameBits(t, "dL/dz", want, got)
			}
		}
	})

	t.Run("gradSums", func(t *testing.T) {
		for n := 0; n <= maxLen; n++ {
			var g, y, h [4][]float32
			for j := range g {
				g[j], y[j], h[j] = elementInput(rng, n), gateInput(rng, n), elementInput(rng, n)
			}
			// Carried-in sums, as from the batch's earlier samples. The
			// specials are left out of every other length so that the
			// finite sums are compared too, not only NaN against NaN.
			if n%2 == 1 {
				for j := range g {
					for i := range g[j] {
						g[j][i], h[j][i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
					}
				}
			}
			wantDy, wantDyXhat := [4]float64{1.5, -2.25, 1e10, -3e-5}, [4]float64{-0.5, 7, 1e-12, -4e8}
			gotDy, gotDyXhat := wantDy, wantDyXhat
			addGradSumsGo(&wantDy, &wantDyXhat, g, y, h)
			addGradSums(&gotDy, &gotDyXhat, g, y, h)
			assertSameSums(t, "Σdy", wantDy, gotDy)
			assertSameSums(t, "Σdy·x̂", wantDyXhat, gotDyXhat)
		}
	})

	t.Run("interleave", func(t *testing.T) {
		for _, cp := range []int{4, 8} {
			for c0 := 0; c0+4 <= cp; c0 += 4 {
				for n := 0; n <= maxLen; n++ {
					stride := n + 3
					src := elementInput(rng, 3*stride+n)
					// One spare voxel past the end: nothing may land there.
					dst := elementInput(rng, (n+1)*cp)
					want, got := clone(dst), clone(dst)
					interleaveGo(want[c0:], src, stride, cp, n)
					interleave(got[c0:], src, stride, cp, n)
					assertSameBits(t, "channels-last", want, got)
				}
			}
		}
	})
}
