package nn

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MaxPool3D is the paper's 2x2x2 max pooling with stride 2 in each
// dimension. Spatial dimensions must be divisible by the pool size.
//
// Both passes parallelize over (sample × channel) blocks: pooling windows
// never cross a channel, so each block's outputs, argmax records and input
// gradients are disjoint from every other block's.
type MaxPool3D struct {
	workerBudget

	Size int

	inShape []int
	argmax  []int32 // flat input index of each output element's winner
}

// NewMaxPool3D creates a cubic max-pool with stride equal to size.
func NewMaxPool3D(size int) *MaxPool3D { return &MaxPool3D{Size: size} }

// Params returns nil: pooling has no trainable parameters.
func (m *MaxPool3D) Params() []*Param { return nil }

// DropCaches implements CacheDropper: the argmax record is dropped. Backward
// requires a fresh Forward afterwards.
func (m *MaxPool3D) DropCaches() { m.inShape, m.argmax = nil, nil }

// Forward downsamples x from [N, C, D, H, W] to [N, C, D/s, H/s, W/s].
func (m *MaxPool3D) Forward(x *tensor.Tensor) *tensor.Tensor { return m.forward(x, tensor.New) }

// ForwardOwned is Forward with the output written into dst.
func (m *MaxPool3D) ForwardOwned(x *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	return m.forward(x, dst.Shaped)
}

func (m *MaxPool3D) forward(x *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	n, c, d, h, w := check5D("MaxPool3D", x)
	s := m.Size
	if d%s != 0 || h%s != 0 || w%s != 0 {
		panic(fmt.Sprintf("nn: MaxPool3D size %d does not divide volume %dx%dx%d", s, d, h, w))
	}
	od, oh, ow := d/s, h/s, w/s
	out := alloc(n, c, od, oh, ow)
	m.inShape = append(m.inShape[:0], x.Shape()...)
	if cap(m.argmax) < out.Size() {
		m.argmax = make([]int32, out.Size())
	}
	m.argmax = m.argmax[:out.Size()]

	xd := x.Data()
	outd := out.Data()
	outCh := od * oh * ow
	parallel.ForWorkers(m.workers, n*c, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			base := blk * d * h * w
			oi := blk * outCh
			for z := 0; z < od; z++ {
				for y := 0; y < oh; y++ {
					for xx := 0; xx < ow; xx++ {
						bestIdx := base + (z*s*h+y*s)*w + xx*s
						best := xd[bestIdx]
						for kz := 0; kz < s; kz++ {
							for ky := 0; ky < s; ky++ {
								row := base + ((z*s+kz)*h+y*s+ky)*w + xx*s
								for kx := 0; kx < s; kx++ {
									if v := xd[row+kx]; v > best {
										best = v
										bestIdx = row + kx
									}
								}
							}
						}
						outd[oi] = best
						m.argmax[oi] = int32(bestIdx)
						oi++
					}
				}
			}
		}
	})
	return out
}

// Backward routes each output gradient to the input element that won the max.
func (m *MaxPool3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return m.backward(gradOut, tensor.New)
}

// BackwardOwned is Backward with the input gradient written into dst.
func (m *MaxPool3D) BackwardOwned(gradOut *tensor.Tensor, dst *tensor.Owned) *tensor.Tensor {
	return m.backward(gradOut, dst.Shaped)
}

func (m *MaxPool3D) backward(gradOut *tensor.Tensor, alloc allocFunc) *tensor.Tensor {
	if m.inShape == nil {
		panic("nn: MaxPool3D.Backward called before Forward")
	}
	gradIn := alloc(m.inShape...)
	gid := gradIn.Data()
	god := gradOut.Data()
	if len(god) != len(m.argmax) {
		panic(fmt.Sprintf("nn: MaxPool3D.Backward gradient size %d does not match cached %d", len(god), len(m.argmax)))
	}
	// Argmax indices from one (sample, channel) block always point into that
	// block's input region, so chunking on block boundaries keeps the
	// scatter-add race-free — and lets each chunk zero its own region first.
	n, c := m.inShape[0], m.inShape[1]
	outCh := len(god) / (n * c)
	inCh := len(gid) / (n * c)
	parallel.ForWorkers(m.workers, n*c, 1, func(lo, hi int) {
		clear(gid[lo*inCh : hi*inCh])
		for i := lo * outCh; i < hi*outCh; i++ {
			gid[m.argmax[i]] += god[i]
		}
	})
	return gradIn
}
