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
	// window, with sigma 1/8 of the window edge per axis, so voxels
	// predicted near a patch border (with less spatial context) contribute
	// less where windows overlap.
	BlendGaussian
)

// SlidingWindow reconstructs a full-volume prediction from overlapping
// patch predictions, averaging where windows overlap — the inference-side
// cost of patch-based training. Infer runs the windows itself;
// BlendPredictions blends predictions computed elsewhere (the serving
// layer's micro-batches) into the same bits.
type SlidingWindow struct {
	Patch  [3]int // window extent (D, H, W)
	Stride [3]int // window stride; ≤ patch for overlap

	// Blend selects the overlap weighting; the zero value is uniform
	// averaging.
	Blend BlendMode
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

// blendWeights returns the per-voxel weight map of a pd×ph×pw window:
// all ones in uniform mode, otherwise the separable Gaussian with per-axis
// sigma edge/8, centred on the window. A weight of one leaves a prediction
// bit for bit as it is.
func (sw SlidingWindow) blendWeights(pd, ph, pw int) []float32 {
	wm := make([]float32, pd*ph*pw)
	if sw.Blend != BlendGaussian {
		for i := range wm {
			wm[i] = 1
		}
		return wm
	}
	axis := func(n int) []float64 {
		sigma := float64(n) / 8
		c := float64(n-1) / 2
		out := make([]float64, n)
		for i := range out {
			dv := (float64(i) - c) / sigma
			out[i] = math.Exp(-0.5 * dv * dv)
		}
		return out
	}
	az, ay, ax := axis(pd), axis(ph), axis(pw)
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

// scatter adds the window's prediction pred ([outC, D, H, W] of the window
// extent), scaled per voxel by the window weight map wm ([D, H, W]), into
// the full-volume accumulator acc ([outC, d, h, w]), and wm itself into
// the volume's weight sum ([d, h, w]).
func (wn Window) scatter(acc, weight []float32, d, h, w int, pred, wm []float32) {
	spatial := d * h * w
	for z := 0; z < wn.D; z++ {
		for y := 0; y < wn.H; y++ {
			src := (z*wn.H + y) * wn.W
			ws := wm[src : src+wn.W]
			dst := ((wn.Z+z)*h+wn.Y+y)*w + wn.X
			wt := weight[dst : dst+len(ws)]
			for x, v := range ws {
				wt[x] += v
			}
			for c := src; c < len(pred); c += len(wm) { // the row in each output channel
				p := pred[c : c+len(ws)]
				a := acc[dst : dst+len(ws)]
				for x, v := range ws {
					a[x] += v * p[x]
				}
				dst += spatial
			}
		}
	}
}

// BlendPredictions combines window predictions into the overlap-weighted
// full volume [outC, d, h, w]. preds holds the prediction of wins[i]
// ([outC, D, H, W] of the windows' shared extent) at offset i·outC·D·H·W.
// Each voxel adds its windows' weighted predictions in scan order and
// divides by the sum of their weights, so the result does not depend on
// the order in which the predictions were computed.
func (sw SlidingWindow) BlendPredictions(wins []Window, preds []float32, outC, d, h, w int) (*tensor.Tensor, error) {
	if len(wins) == 0 {
		return nil, fmt.Errorf("patch: no windows to blend")
	}
	wm := sw.blendWeights(wins[0].D, wins[0].H, wins[0].W)
	n := outC * len(wm)
	if outC < 1 || len(preds) != len(wins)*n {
		return nil, fmt.Errorf("patch: %d prediction values for %d windows of %d channels × %d voxels",
			len(preds), len(wins), outC, len(wm))
	}
	acc := tensor.New(outC, d, h, w)
	ad := acc.Data()
	weight := make([]float32, d*h*w)
	for i, wn := range wins {
		wn.scatter(ad, weight, d, h, w, preds[i*n:(i+1)*n], wm)
	}
	for ci := 0; ci < outC; ci++ {
		a := ad[ci*len(weight):][:len(weight)]
		for i, wt := range weight {
			if wt > 0 {
				a[i] /= wt
			}
		}
	}
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

// Counts returns how many window origins Windows places along each axis of
// a d×h×w volume — len(Windows(d, h, w)) is their product — without listing
// any, so a caller can bound a volume's windows before it enumerates them.
func (sw SlidingWindow) Counts(d, h, w int) [3]int {
	var n [3]int
	for i, dim := range [3]int{d, h, w} {
		n[i] = 1
		if dim > sw.Patch[i] {
			// positions' strided origins below dim − patch, then the clamped one.
			n[i] = (dim-sw.Patch[i]-1)/sw.Stride[i] + 2
		}
	}
	return n
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

	var preds []float32
	n := 0 // values per window prediction
	for i, wn := range wins {
		p, err := Extract(s, wn.Z, wn.Y, wn.X, wn.D, wn.H, wn.W)
		if err != nil {
			return nil, err
		}
		out := model.Infer(p.Input.Reshape(append([]int{1}, p.Input.Shape()...)...)).Data()
		if preds == nil {
			n = len(out)
			preds = make([]float32, len(wins)*n)
		}
		if len(out) != n {
			return nil, fmt.Errorf("patch: window %d predicted %d values, window 0 %d", i, len(out), n)
		}
		copy(preds[i*n:], out)
	}
	return sw.BlendPredictions(wins, preds, n/(wins[0].D*wins[0].H*wins[0].W), d, h, w)
}
