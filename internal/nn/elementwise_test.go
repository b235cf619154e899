package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
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

// elementPlanes are the geometries the block's passes meet: plain planes of
// every length from 0 to 40, so every tail length meets every block count,
// and bordered ones whose rows are a multiple of 4 wide (the assembly walks
// them) or not (the Go loop does them all).
func elementPlanes() []haloGeom {
	var gs []haloGeom
	for n := 0; n <= 40; n++ {
		gs = append(gs, newHaloGeom(1, 1, n, 0))
	}
	return append(gs, newHaloGeom(2, 3, 5, 0),
		newHaloGeom(1, 1, 4, 1), newHaloGeom(2, 3, 4, 1), newHaloGeom(3, 2, 8, 1), newHaloGeom(2, 2, 16, 1),
		newHaloGeom(1, 3, 12, 2), newHaloGeom(2, 2, 5, 1), newHaloGeom(2, 3, 2, 1))
}

// borderedPlane returns one plane of geometry g, every float of it a value
// no pass writes, so a write outside the interior shows.
func borderedPlane(g haloGeom) []float32 {
	buf := make([]float32, g.vol)
	for i := range buf {
		buf[i] = -7.75
	}
	return buf
}

// TestElementwiseAsmMatchesGo holds each AVX2 element routine, with its Go
// tail, to its Go loop bit for bit, writing a bordered plane's interior row
// by row and nothing else of it.
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
			for _, g := range elementPlanes() {
				z := p.input(rng, g.d*g.h*g.w)
				wantZ, gotZ := clone(z), clone(z)
				wantY, gotY := borderedPlane(g), borderedPlane(g)
				g.forRuns(0, func(i, o, n int) {
					normReluGo(wantZ[i:i+n], wantY[g.interior()+o:][:n], p.mean, p.rstd, p.gamma, p.beta)
				})
				normRelu(gotZ, gotY[g.interior():], g, p.mean, p.rstd, p.gamma, p.beta)
				assertSameBits(t, "x̂", wantZ, gotZ)
				assertSameBits(t, "y", wantY, gotY)
			}
		}
	})

	t.Run("gatedInputGrad", func(t *testing.T) {
		params := []struct {
			k, m, sumDy, sumDyXhat float64
			gamma, beta            float32
			xhat                   func(*rand.Rand, int) []float32
		}{
			// γ = 1, β = 0 gates on x̂ itself: NaN, ±0 and negatives close it.
			{0.013, 37, -2.5, 4.25, 1, 0, elementInput},
			{-7e3, 1e6, 1e30, -3e-9, -0.75, 0.125, elementInput},
			{1e-300, 8, 0, 0, 1e-30, 1e-45, elementInput},
			// x̂·Σdy·x̂ = −(2⁵⁰ + 2) all but cancels Σdy = 2⁵⁰ − 1, whose
			// binade is half as coarse: subtracted in the other order, m·dy
			// would round to a multiple of 1/4 instead of 1/8.
			{0.5, 3, 1<<50 - 1, 1<<50 + 2, -1, 0, minusOne},
		}
		for _, p := range params {
			for _, g := range elementPlanes() {
				vol := g.d * g.h * g.w
				grad, h := elementInput(rng, vol), p.xhat(rng, vol)
				want, got := clone(grad), clone(grad)
				wantOut, gotOut := borderedPlane(g), borderedPlane(g)
				g.forRuns(0, func(i, o, n int) {
					gatedInputGradGo(want[i:i+n], h[i:i+n], wantOut[g.interior()+o:][:n],
						p.k, p.m, p.sumDy, p.sumDyXhat, p.gamma, p.beta)
				})
				gatedInputGrad(got, h, gotOut[g.interior():], g, p.k, p.m, p.sumDy, p.sumDyXhat, p.gamma, p.beta)
				assertSameBits(t, "dL/dz", want, got)
				assertSameBits(t, "dL/dz in the halo", wantOut, gotOut)
				if g.p == 0 { // the first block's pass stores over the gradient twice
					same := clone(grad)
					gatedInputGrad(same, h, same, g, p.k, p.m, p.sumDy, p.sumDyXhat, p.gamma, p.beta)
					assertSameBits(t, "dL/dz stored over itself", want, same)
				}
			}
		}
	})

	t.Run("gradSums", func(t *testing.T) {
		affs := []laneAffine{
			{gamma: [4]float32{1, 1, 1, 1}},
			{gamma: [4]float32{-0.75, 1.25, 1e-30, -2}, beta: [4]float32{0.125, -0.5, 1e-45, 0}},
		}
		for n := 0; n <= maxLen; n++ {
			var g, h [4][]float32
			for j := range g {
				g[j], h[j] = elementInput(rng, n), elementInput(rng, n)
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
			for _, aff := range affs {
				wantDy, wantDyXhat := [4]float64{1.5, -2.25, 1e10, -3e-5}, [4]float64{-0.5, 7, 1e-12, -4e8}
				gotDy, gotDyXhat := wantDy, wantDyXhat
				addGradSumsGo(&wantDy, &wantDyXhat, g, h, &aff)
				addGradSums(&gotDy, &gotDyXhat, g, h, &aff)
				assertSameSums(t, "Σdy", wantDy, gotDy)
				assertSameSums(t, "Σdy·x̂", wantDyXhat, gotDyXhat)
			}
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

// TestMaxPoolAsmMatchesGo holds the pooling passes whose 2×2×2 rows run in
// AVX2 eight windows at a time where it is live — Infer's, without argmax,
// and Forward's, with it — to the Go loop alone, bit for bit, argmax
// included: over inputs thick with NaN of both signs, +0 against −0 and
// exact ties (drawn from a handful of values, so most windows hold several
// maxima), at pooled widths on both sides of a multiple of 8, between
// haloed buffers of different borders and channel windows. Every output
// starts from the same fill, so a write outside the pooled interiors shows
// too.
func TestMaxPoolAsmMatchesGo(t *testing.T) {
	values := []float32{float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		1, 1, -1, 2, float32(math.Inf(-1))}
	rng := rand.New(rand.NewSource(3))
	for _, ow := range []int{1, 3, 4, 7, 8, 9, 12, 16, 17, 29} {
		for _, sh := range []struct{ od, oh, xp, op int }{{1, 1, 0, 0}, {2, 3, 1, 0}, {3, 2, 0, 1}, {2, 2, 2, 1}} {
			t.Run(fmt.Sprintf("ow%d_od%d_oh%d_halo%d_%d", ow, sh.od, sh.oh, sh.xp, sh.op), func(t *testing.T) {
				const n, cb, c0, c = 2, 3, 1, 2
				d, h, w := 2*sh.od, 2*sh.oh, 2*ow
				xb := tensor.New(n, cb, d+2*sh.xp, h+2*sh.xp, w+2*sh.xp)
				for i, xd := 0, xb.Data(); i < len(xd); i++ {
					if rng.Intn(4) == 0 {
						xd[i] = float32(rng.NormFloat64())
					} else {
						xd[i] = values[rng.Intn(len(values))]
					}
				}
				x := Haloed{Buf: xb, C0: c0, C: c, P: sh.xp}
				fill := elementInput(rng, n*(c+1)*(sh.od+2*sh.op)*(sh.oh+2*sh.op)*(ow+2*sh.op))
				var outs [3]*tensor.Tensor
				for i := range outs {
					outs[i] = tensor.FromSlice(clone(fill), n, c+1, sh.od+2*sh.op, sh.oh+2*sh.op, ow+2*sh.op)
				}
				pooled := n * c * sh.od * sh.oh * ow
				want, got := make([]int32, pooled), make([]int32, pooled)
				m := NewMaxPool3D(2)
				m.poolAs(x, Haloed{Buf: outs[0], C: c, P: sh.op}, want, false)
				m.poolAs(x, Haloed{Buf: outs[1], C: c, P: sh.op}, got, true)
				m.poolAs(x, Haloed{Buf: outs[2], C: c, P: sh.op}, nil, true)
				for j, what := range []string{"with argmax", "without argmax"} {
					for i, v := range outs[0].Data() {
						if g := outs[j+1].Data()[i]; math.Float32bits(g) != math.Float32bits(v) {
							t.Fatalf("output %d %s: %v (%#08x), want %v (%#08x)", i, what,
								g, math.Float32bits(g), v, math.Float32bits(v))
						}
					}
				}
				for i, a := range want {
					if got[i] != a {
						t.Fatalf("pooled voxel %d won by input %d, want %d", i, got[i], a)
					}
				}
			})
		}
	}
}
