package unet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// zeroBorder fails unless every float of a's buffer outside the interiors
// its planes hold — the border a 3³ convolution reads as padding — is +0.
func zeroBorder(t *testing.T, what string, a nn.Haloed) {
	t.Helper()
	if a.Buf == nil || a.P == 0 {
		t.Fatalf("%s: no bordered layout", what)
	}
	s := a.Buf.Shape()
	dp, hp, wp := s[2], s[3], s[4]
	data := a.Buf.Data()
	for plane := 0; plane < s[0]*s[1]; plane++ {
		for z := 0; z < dp; z++ {
			for y := 0; y < hp; y++ {
				for x := 0; x < wp; x++ {
					inside := z >= a.P && z < dp-a.P && y >= a.P && y < hp-a.P && x >= a.P && x < wp-a.P
					if v := data[((plane*dp+z)*hp+y)*wp+x]; !inside && math.Float32bits(v) != 0 {
						t.Fatalf("%s: plane %d voxel (%d, %d, %d) of the border is %v, want +0", what, plane, z, y, x, v)
					}
				}
			}
		}
	}
}

// TestTrainHaloBordersAcrossShapes: training steps at batch sizes and
// extents that grow, shrink and grow again, then after DropCaches, each
// match a fresh network's step on the same data — the prediction and every
// parameter gradient bit for bit — and every bordered buffer a training step
// writes (each block a's output, the concatenations, the pooled outputs and
// the network's dL/dz) keeps a +0 border after Forward and after Backward:
// the layers write interiors only, and a layout of other extents is cleared
// where it was written over.
func TestTrainHaloBordersAcrossShapes(t *testing.T) {
	cfg := Config{InChannels: 4, OutChannels: 1, BaseFilters: 4, Steps: 3, Kernel: 3, UpKernel: 2, Seed: 11}
	u := MustNew(cfg)
	rng := rand.New(rand.NewSource(12))
	borders := func(when string, n, d int) {
		t.Helper()
		p := cfg.Kernel / 2
		for i, e := range u.enc {
			// The shape of the last layout: Output lays nothing out again.
			zeroBorder(t, fmt.Sprintf("%s: enc%d.a's output", when, i+1), e.a.Output(n, d, d, d, p))
			if e.pool != nil {
				zeroBorder(t, fmt.Sprintf("%s: enc%d's pooled output", when, i+1), e.pooled.Layout())
				d /= cfg.UpKernel
			}
		}
		for _, dc := range u.dec {
			d *= cfg.UpKernel
			zeroBorder(t, fmt.Sprintf("%s: %s's concatenation", when, dc.a.Conv.W.Name), dc.cat.Layout())
			zeroBorder(t, fmt.Sprintf("%s: %s's output", when, dc.a.Conv.W.Name), dc.a.Output(n, d, d, d, p))
		}
	}
	for i, sh := range []struct {
		n, d int
		drop bool
	}{{2, 16, false}, {1, 8, false}, {2, 16, false}, {2, 16, true}} {
		if sh.drop {
			u.DropCaches()
		}
		x := tensor.Randn(rng, 0, 1, sh.n, cfg.InChannels, sh.d, sh.d, sh.d)
		g := tensor.Randn(rng, 0, 1, sh.n, cfg.OutChannels, sh.d, sh.d, sh.d)
		when := fmt.Sprintf("step %d [%d,%d,%d³]", i, sh.n, cfg.InChannels, sh.d)

		fresh := MustNew(cfg)
		want := fresh.Forward(x)
		fresh.Backward(g)

		u.ZeroGrads()
		sameBits(t, when+": prediction", want.Data(), u.Forward(x).Data())
		borders(when+", after Forward", sh.n, sh.d)
		u.Backward(g)
		borders(when+", after Backward", sh.n, sh.d)
		zeroBorder(t, when+", after Backward: dL/dz", u.dz.Layout())
		for j, p := range fresh.Params() {
			sameBits(t, when+": gradient of "+p.Name, p.Grad.Data(), u.Params()[j].Grad.Data())
		}
	}
}
