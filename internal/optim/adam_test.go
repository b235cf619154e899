package optim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestAdamAsmMatchesGo: Adam.Step, whose spans run their leading multiple
// of 4 elements in AVX2 where it is live, leaves the parameters and both
// moments bit for bit where adamGo alone over each parameter leaves them,
// over many steps, at 1, 2 and 4 workers. The gradients mix normal values
// with zeros of both signs, subnormals and magnitudes whose square
// overflows float32; the parameter lengths are not all multiples of 4, and
// chunk edges fall inside parameters.
func TestAdamAsmMatchesGo(t *testing.T) {
	if !useAsm {
		t.Log("the AVX2 update is not live here: Step runs adamGo alone")
	}
	sizes := []int{1, 3, 4, 5, 7, 4097, 10001}
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-40, 3e-39,
		1e20, -1e25, 3e38, -math.MaxFloat32}
	grads := func(rng *rand.Rand, g []float32) {
		for i := range g {
			if rng.Intn(4) == 0 {
				g[i] = specials[rng.Intn(len(specials))]
			} else {
				g[i] = float32(rng.NormFloat64())
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(workers)))
			opt := NewAdam(1e-3)
			opt.SetWorkers(workers)
			params := make([]*nn.Param, len(sizes))
			want := make([][]float32, len(sizes))
			ms, vs := make([][]float32, len(sizes)), make([][]float32, len(sizes))
			for i, n := range sizes {
				params[i] = nn.NewParam(fmt.Sprintf("p%d", i), tensor.Randn(rng, 0, 1, n))
				want[i] = append([]float32(nil), params[i].Value.Data()...)
				ms[i], vs[i] = make([]float32, n), make([]float32, n)
			}
			for step := 1; step <= 40; step++ {
				for _, p := range params {
					grads(rng, p.Grad.Data())
				}
				opt.Step(params)
				k := opt.step
				for i, p := range params {
					adamGo(want[i], p.Grad.Data(), ms[i], vs[i], &k)
				}
				for i, p := range params {
					for what, pair := range map[string][2][]float32{
						"value": {want[i], p.Value.Data()},
						"m":     {ms[i], opt.m[p]},
						"v":     {vs[i], opt.v[p]},
					} {
						for j, w := range pair[0] {
							if got := pair[1][j]; math.Float32bits(got) != math.Float32bits(w) {
								t.Fatalf("step %d: %s of parameter %d element %d is %v, want %v", step, what, i, j, got, w)
							}
						}
					}
				}
			}
		})
	}
}
