// Package patch implements sub-volume patch extraction and sliding-window
// inference — the memory-saving alternative the paper argues against
// ("numerous approaches ... use sampled sub-volume patches because of memory
// limitations ... this approach loses spatial information and has very poor
// performing time for both training and inference"). It exists so the
// full-volume-vs-patches comparison can actually be run. The window loop
// runs a model's forward-only Infer and copies each window's prediction out
// before the next window's Infer.
package patch

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/volume"
)

// Extract returns the [z0:z0+pd, y0:y0+ph, x0:x0+pw] sub-volume of a
// sample. Contiguous cuts — the whole volume, or a z-slab of a
// single-channel tensor spanning full y/x extents — come back as zero-copy
// views of s's tensors (treat extracted patches as read-only); strided cuts
// are copied.
func Extract(s *volume.Sample, z0, y0, x0, pd, ph, pw int) (*volume.Sample, error) {
	cut := func(t *tensor.Tensor) (*tensor.Tensor, error) {
		sh := t.Shape()
		c, d, h, w := sh[0], sh[1], sh[2], sh[3]
		if z0 < 0 || y0 < 0 || x0 < 0 || z0+pd > d || y0+ph > h || x0+pw > w {
			return nil, fmt.Errorf("patch: [%d:%d, %d:%d, %d:%d] outside %dx%dx%d",
				z0, z0+pd, y0, y0+ph, x0, x0+pw, d, h, w)
		}
		if y0 == 0 && x0 == 0 && ph == h && pw == w {
			if pd == d {
				// The cut is the whole volume.
				return t.View(0, c, pd, ph, pw), nil
			}
			if c == 1 {
				// A full-plane z-slab of a single-channel volume (the
				// common mask layout) is one contiguous run.
				return t.View(z0*h*w, 1, pd, ph, pw), nil
			}
		}
		out := tensor.New(c, pd, ph, pw)
		od := out.Data()
		td := t.Data()
		for ci := 0; ci < c; ci++ {
			for z := 0; z < pd; z++ {
				for y := 0; y < ph; y++ {
					src := ((ci*d+z0+z)*h+y0+y)*w + x0
					dst := ((ci*pd+z)*ph + y) * pw
					copy(od[dst:dst+pw], td[src:src+pw])
				}
			}
		}
		return out, nil
	}
	in, err := cut(s.Input)
	if err != nil {
		return nil, err
	}
	mask, err := cut(s.Mask)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s@%d,%d,%d", s.Name, z0, y0, x0)
	return &volume.Sample{Name: name, Input: in, Mask: mask}, nil
}

// RandomPatches draws n random patches from the sample. With posBias > 0,
// that fraction of draws is retried (up to a few attempts) until the patch
// contains at least one positive voxel, the usual trick against the heavy
// class imbalance.
func RandomPatches(s *volume.Sample, n, pd, ph, pw int, posBias float64, rng *rand.Rand) ([]*volume.Sample, error) {
	sh := s.Input.Shape()
	d, h, w := sh[1], sh[2], sh[3]
	if pd > d || ph > h || pw > w {
		return nil, fmt.Errorf("patch: %dx%dx%d larger than volume %dx%dx%d", pd, ph, pw, d, h, w)
	}
	out := make([]*volume.Sample, 0, n)
	for i := 0; i < n; i++ {
		wantPos := rng.Float64() < posBias
		var p *volume.Sample
		for attempt := 0; attempt < 8; attempt++ {
			z0, y0, x0 := rng.Intn(d-pd+1), rng.Intn(h-ph+1), rng.Intn(w-pw+1)
			cand, err := Extract(s, z0, y0, x0, pd, ph, pw)
			if err != nil {
				return nil, err
			}
			p = cand
			if !wantPos || cand.Mask.Max() > 0 {
				break
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// Predictor produces per-voxel probabilities for a batched input on the
// forward-only path. Infer's result may be a buffer the predictor owns and
// overwrites on its next Infer, so a caller copies out what it keeps. The
// U-Net satisfies it.
type Predictor interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// BlendMode selects how overlapping window predictions are weighted when
// they are combined into the full volume.
type BlendMode int

const (
	// BlendUniform weights every voxel of every window equally — plain
	// overlap averaging, the original behaviour.
	BlendUniform BlendMode = iota
	// BlendGaussian weights each window voxel by a Gaussian centred on the
	// window, so voxels predicted near a patch border (with less spatial
	// context) contribute less where windows overlap.
	BlendGaussian
)

// SlidingWindow reconstructs a full-volume prediction from overlapping
// patch predictions, averaging where windows overlap — the inference-side
// cost of patch-based training.
type SlidingWindow struct {
	Patch  [3]int // window extent (D, H, W)
	Stride [3]int // window stride; ≤ patch for overlap

	// Blend selects the overlap weighting; the zero value is uniform
	// averaging. Sigma is the Gaussian width as a fraction of the window
	// edge (0 means 1/8, the usual sliding-window choice).
	Blend BlendMode
	Sigma float64

	// Workers is the worker budget for the blend stage; 0 means the
	// parallel package default. Results are bitwise identical for any
	// budget: blending partitions over output channels and always adds
	// windows in scan order.
	Workers int
}

// Window is one sliding-window placement: origin (Z, Y, X) and extent
// (D, H, W). All windows of a volume share the same extent; only origins
// differ.
type Window struct {
	Z, Y, X int
	D, H, W int
}

// Windows enumerates the window placements covering a d×h×w volume in scan
// order (Z outermost, X innermost) — the canonical window indexing shared
// by Infer, BlendPredictions and the serving layer's micro-batcher.
func (sw SlidingWindow) Windows(d, h, w int) []Window {
	pd, ph, pw := min(sw.Patch[0], d), min(sw.Patch[1], h), min(sw.Patch[2], w)
	var wins []Window
	for _, z0 := range positions(d, sw.Patch[0], sw.Stride[0]) {
		for _, y0 := range positions(h, sw.Patch[1], sw.Stride[1]) {
			for _, x0 := range positions(w, sw.Patch[2], sw.Stride[2]) {
				wins = append(wins, Window{Z: z0, Y: y0, X: x0, D: pd, H: ph, W: pw})
			}
		}
	}
	return wins
}

// gaussianWindow returns the separable Gaussian weight map of a pd×ph×pw
// window with per-axis sigma frac·edge, centred on the window.
func gaussianWindow(pd, ph, pw int, frac float64) []float32 {
	if frac <= 0 {
		frac = 0.125
	}
	axis := func(n int) []float64 {
		sigma := frac * float64(n)
		c := float64(n-1) / 2
		out := make([]float64, n)
		for i := range out {
			dv := (float64(i) - c) / sigma
			out[i] = math.Exp(-0.5 * dv * dv)
		}
		return out
	}
	az, ay, ax := axis(pd), axis(ph), axis(pw)
	wm := make([]float32, pd*ph*pw)
	i := 0
	for z := 0; z < pd; z++ {
		for y := 0; y < ph; y++ {
			zy := az[z] * ay[y]
			for x := 0; x < pw; x++ {
				wm[i] = float32(zy * ax[x])
				i++
			}
		}
	}
	return wm
}

// NonOverlapping reports whether the sliding-window decomposition of a
// d×h×w volume produces pairwise-disjoint windows — every voxel covered by
// exactly one window. True when each axis stride is at least the window
// extent and the boundary-clamped final window does not back into its
// neighbour. Disjoint windows admit the direct-scatter blend path: window
// predictions can land in the output accumulator in any order and still
// match the scan-order blend bit for bit, because no voxel sums more than
// one contribution.
func (sw SlidingWindow) NonOverlapping(d, h, w int) bool {
	dims := [3]int{d, h, w}
	for i := 0; i < 3; i++ {
		pos := positions(dims[i], sw.Patch[i], sw.Stride[i])
		ext := min(sw.Patch[i], dims[i])
		for j := 1; j < len(pos); j++ {
			if pos[j]-pos[j-1] < ext {
				return false
			}
		}
	}
	return true
}

// BlendWeights returns the per-window-voxel weight map of the blend mode
// for a pd×ph×pw window: nil in uniform mode (every voxel weighs 1), the
// centred Gaussian map otherwise.
func (sw SlidingWindow) BlendWeights(pd, ph, pw int) []float32 {
	if sw.Blend == BlendGaussian {
		return gaussianWindow(pd, ph, pw, sw.Sigma)
	}
	return nil
}

// OverlapWeights returns the per-voxel blend weight of the window set over
// a d×h×w volume: each window's weight map (uniform 1 or Gaussian) added
// in scan order — the denominator of the overlap average.
func (sw SlidingWindow) OverlapWeights(wins []Window, d, h, w int) []float32 {
	if len(wins) == 0 {
		return nil
	}
	pd, ph, pw := wins[0].D, wins[0].H, wins[0].W
	wmap := sw.BlendWeights(pd, ph, pw)
	weight := make([]float32, d*h*w)
	for _, wn := range wins {
		for z := 0; z < pd; z++ {
			for y := 0; y < ph; y++ {
				dst := ((wn.Z+z)*h+wn.Y+y)*w + wn.X
				if wmap == nil {
					for x := 0; x < pw; x++ {
						weight[dst+x]++
					}
				} else {
					src := (z*ph + y) * pw
					for x := 0; x < pw; x++ {
						weight[dst+x] += wmap[src+x]
					}
				}
			}
		}
	}
	return weight
}

// ScatterWeighted adds the window's prediction pred ([outC, D, H, W] of
// the window extent) into the full-volume accumulator acc ([outC, d, h, w]),
// scaled per voxel by the window weight map (nil = uniform weight 1).
// Callers with pairwise-disjoint windows may invoke it concurrently — each
// window owns its accumulator region.
func (wn Window) ScatterWeighted(acc []float32, outC, d, h, w int, pred, wmap []float32) {
	pd, ph, pw := wn.D, wn.H, wn.W
	for ci := 0; ci < outC; ci++ {
		for z := 0; z < pd; z++ {
			for y := 0; y < ph; y++ {
				src := ((ci*pd+z)*ph + y) * pw
				dst := ((ci*d+wn.Z+z)*h+wn.Y+y)*w + wn.X
				if wmap == nil {
					for x := 0; x < pw; x++ {
						acc[dst+x] += pred[src+x]
					}
				} else {
					wsrc := (z*ph + y) * pw
					for x := 0; x < pw; x++ {
						acc[dst+x] += wmap[wsrc+x] * pred[src+x]
					}
				}
			}
		}
	}
}

// NormalizeBlend divides the accumulator by the overlap weights in place,
// skipping uncovered voxels — the final step of BlendPredictions, exposed
// for callers that scatter window predictions directly (the serving
// layer's disjoint-window fast path). Element divisions are independent,
// so the result is bitwise identical at any worker budget.
func NormalizeBlend(acc, weight []float32, outC, workers int) {
	spatial := len(weight)
	parallel.ForWorkers(workers, outC, 1, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			base := ci * spatial
			for i := 0; i < spatial; i++ {
				if weight[i] > 0 {
					acc[base+i] /= weight[i]
				}
			}
		}
	})
}

// BlendPredictions combines per-window predictions — preds[i] belonging to
// wins[i], each of size outC·D·H·W of the shared window extent — into the
// overlap-weighted full volume. Windows are always accumulated in scan
// order regardless of the worker budget (the parallel partition is over
// output channels), so the result is deterministic and, in uniform mode,
// bit-for-bit identical to the original serial sliding-window inference.
func (sw SlidingWindow) BlendPredictions(wins []Window, preds []*tensor.Tensor, d, h, w int) (*tensor.Tensor, error) {
	if len(wins) == 0 {
		return nil, fmt.Errorf("patch: no windows to blend")
	}
	if len(preds) != len(wins) {
		return nil, fmt.Errorf("patch: %d predictions for %d windows", len(preds), len(wins))
	}
	pd, ph, pw := wins[0].D, wins[0].H, wins[0].W
	pvol := pd * ph * pw
	if preds[0] == nil {
		return nil, fmt.Errorf("patch: nil prediction for window 0")
	}
	outC := preds[0].Size() / pvol
	if outC < 1 || outC*pvol != preds[0].Size() {
		return nil, fmt.Errorf("patch: prediction size %d is not a multiple of the %dx%dx%d window", preds[0].Size(), pd, ph, pw)
	}
	for i, p := range preds {
		if p == nil || p.Size() != outC*pvol {
			return nil, fmt.Errorf("patch: prediction %d missing or mis-sized", i)
		}
	}

	wmap := sw.BlendWeights(pd, ph, pw)
	weight := sw.OverlapWeights(wins, d, h, w)

	acc := tensor.New(outC, d, h, w)
	ad := acc.Data()
	spatial := d * h * w
	parallel.ForWorkers(sw.Workers, outC, 1, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			for i, wn := range wins {
				pdd := preds[i].Data()
				for z := 0; z < pd; z++ {
					for y := 0; y < ph; y++ {
						src := ((ci*pd+z)*ph + y) * pw
						dst := ((ci*d+wn.Z+z)*h+wn.Y+y)*w + wn.X
						if wmap == nil {
							for x := 0; x < pw; x++ {
								ad[dst+x] += pdd[src+x]
							}
						} else {
							wsrc := (z*ph + y) * pw
							for x := 0; x < pw; x++ {
								ad[dst+x] += wmap[wsrc+x] * pdd[src+x]
							}
						}
					}
				}
			}
			base := ci * spatial
			for i := 0; i < spatial; i++ {
				if weight[i] > 0 {
					ad[base+i] /= weight[i]
				}
			}
		}
	})
	return acc, nil
}

// Validate reports whether the window configuration is usable.
func (sw SlidingWindow) Validate() error {
	for i := 0; i < 3; i++ {
		if sw.Patch[i] <= 0 {
			return fmt.Errorf("patch: non-positive window extent %v", sw.Patch)
		}
		if sw.Stride[i] <= 0 || sw.Stride[i] > sw.Patch[i] {
			return fmt.Errorf("patch: stride %v must be in (0, patch] %v", sw.Stride, sw.Patch)
		}
	}
	return nil
}

// positions returns window origins covering [0, dim) with the given stride,
// clamping the final window to the boundary.
func positions(dim, patch, stride int) []int {
	if patch >= dim {
		return []int{0}
	}
	var out []int
	for p := 0; ; p += stride {
		if p+patch >= dim {
			out = append(out, dim-patch)
			return out
		}
		out = append(out, p)
	}
}

// Infer runs the predictor over every window of the sample's input, serially
// in scan order, and returns the overlap-blended full-volume probability map
// with the same channel count as the model output.
func (sw SlidingWindow) Infer(model Predictor, s *volume.Sample) (*tensor.Tensor, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	sh := s.Input.Shape()
	d, h, w := sh[1], sh[2], sh[3]
	wins := sw.Windows(d, h, w)

	preds := make([]*tensor.Tensor, len(wins))
	for i, wn := range wins {
		p, err := Extract(s, wn.Z, wn.Y, wn.X, wn.D, wn.H, wn.W)
		if err != nil {
			return nil, err
		}
		preds[i] = model.Infer(p.Input.Reshape(append([]int{1}, p.Input.Shape()...)...)).Clone()
	}
	return sw.BlendPredictions(wins, preds, d, h, w)
}
