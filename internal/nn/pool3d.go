package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MaxPool3D is the paper's 2x2x2 max pooling with stride 2 in each
// dimension. Spatial dimensions must be divisible by the pool size.
//
// Both passes parallelize over (sample × channel) blocks: pooling windows
// never cross a channel, so each block's outputs, argmax records and input
// gradients are disjoint from every other block's. Infer's passes record no
// argmax, and pool 2×2×2 windows in AVX2 where the CPU has it, bit for bit
// the Go loop Forward runs.
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

// DropCaches drops the argmax record. Backward requires a fresh Forward
// afterwards.
func (m *MaxPool3D) DropCaches() { m.inShape, m.argmax = nil, nil }

// Forward is ForwardInto a fresh tensor.
func (m *MaxPool3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, od, oh, ow := m.outShape(x)
	return m.ForwardInto(x, tensor.New(n, c, od, oh, ow))
}

// ForwardInto downsamples x from [N, C, D, H, W] into dst
// ([N, C, D/s, H/s, W/s]) and records each window's winner for Backward.
func (m *MaxPool3D) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	m.inShape = append(m.inShape[:0], x.Shape()...)
	if cap(m.argmax) < dst.Size() {
		m.argmax = make([]int32, dst.Size())
	}
	m.argmax = m.argmax[:dst.Size()]
	m.pool(Whole(x), Whole(dst), m.argmax)
	return dst
}

// outShape is pooledShape of a whole tensor.
func (m *MaxPool3D) outShape(x *tensor.Tensor) (n, c, od, oh, ow int) {
	return m.pooledShape(Whole(x))
}

// pooledShape checks that the pool size divides x's volume and returns the
// pooled shape.
func (m *MaxPool3D) pooledShape(x Haloed) (n, c, od, oh, ow int) {
	n, c, d, h, w := x.shape("MaxPool3D")
	s := m.Size
	if d%s != 0 || h%s != 0 || w%s != 0 {
		panic(fmt.Sprintf("nn: MaxPool3D size %d does not divide volume %dx%dx%d", s, d, h, w))
	}
	return n, c, d / s, h / s, w / s
}

// pool writes the maximum of every window of x into out and, when argmax is
// non-nil, the flat input index of its winner. Within a window the elements
// are visited in (z, y, x) order and one replaces the running maximum only
// when it is greater, so a NaN never does (and a NaN first element stays),
// and the first of equal maxima wins, +0 and −0 included. Four windows of a
// row are stepped abreast, each in its own order: one window's selects are a
// chain of dependent compares. Without argmax — Infer's passes — a 2×2×2
// pool runs each row's leading multiple of 8 windows in AVX2 where it is
// live (maxPoolVec: eight windows a step, each by the same rule, VMAXPS
// keeping the running maximum unless the new element is greater), and this
// loop the rest. Only interiors are read and written; argmax is indexed like
// out's buffer, and asked for of whole tensors only.
func (m *MaxPool3D) pool(x, out Haloed, argmax []int32) {
	n, c, od, oh, ow := m.pooledShape(x)
	checkHaloedDst("MaxPool3D", out, n, c, od, oh, ow)
	gx, gout := x.geom(), out.geom()
	s := m.Size
	xd, outd := x.Buf.Data(), out.Buf.Data()
	parallel.ForWorkers(m.workers, n*c, 1, func(_, lo, hi int) {
		// The window's offsets from its corner, in visiting order.
		var buf [8]int
		win := buf[:0]
		for kz := 0; kz < s; kz++ {
			for ky := 0; ky < s; ky++ {
				for kx := 0; kx < s; kx++ {
					win = append(win, (kz*gx.hp+ky)*gx.wp+kx)
				}
			}
		}
		for blk := lo; blk < hi; blk++ {
			base := x.plane(gx, blk/c, blk%c)
			obase := out.plane(gout, blk/c, blk%c)
			done := 0 // the leading pooled voxels of every row the assembly did
			if argmax == nil && s == 2 {
				done = maxPoolVec(outd[obase:], xd[base:], gx.wp, gx.hp*gx.wp, gout.wp, gout.hp*gout.wp, od, oh, ow)
			}
			for z := 0; z < od; z++ {
				for y := 0; y < oh; y++ {
					row := base + (z*s*gx.hp+y*s)*gx.wp
					oi := obase + (z*gout.hp+y)*gout.wp + done
					for xx := done; xx < ow; xx += 4 {
						// Past the row's end the lanes repeat its last window.
						last := row + (min(xx+4, ow)-1)*s
						c0 := row + xx*s
						c1, c2, c3 := min(c0+s, last), min(c0+2*s, last), min(c0+3*s, last)
						b0, b1, b2, b3 := xd[c0], xd[c1], xd[c2], xd[c3]
						a0, a1, a2, a3 := c0, c1, c2, c3
						for _, off := range win[1:] {
							b0, a0 = greater(xd[c0+off], c0+off, b0, a0)
							b1, a1 = greater(xd[c1+off], c1+off, b1, a1)
							b2, a2 = greater(xd[c2+off], c2+off, b2, a2)
							b3, a3 = greater(xd[c3+off], c3+off, b3, a3)
						}
						live := min(4, ow-xx)
						best := [4]float32{b0, b1, b2, b3}
						copy(outd[oi:oi+live], best[:])
						if argmax != nil {
							at := [4]int32{int32(a0), int32(a1), int32(a2), int32(a3)}
							copy(argmax[oi:oi+live], at[:])
						}
						oi += live
					}
				}
			}
		}
	})
}

// greater returns (v, i) when v > best and (best, at) otherwise. It is a
// select, not a branch: after a ReLU, whether the next element of a window
// wins is a coin toss the branch predictor loses.
func greater(v float32, i int, best float32, at int) (float32, int) {
	var keep uint32
	if v > best {
		keep = ^uint32(0)
		at = i
	}
	return math.Float32frombits(math.Float32bits(v)&keep | math.Float32bits(best)&^keep), at
}

// Backward is BackwardInto a fresh tensor.
func (m *MaxPool3D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return m.BackwardInto(gradOut, tensor.New(m.cachedShape()...))
}

// BackwardInto routes each output gradient to the input element that won
// the max, into gradIn.
func (m *MaxPool3D) BackwardInto(gradOut, gradIn *tensor.Tensor) *tensor.Tensor {
	in, sz := m.cachedShape(), m.Size
	checkGradShape("MaxPool3D.Backward", gradOut, in[0], in[1], in[2]/sz, in[3]/sz, in[4]/sz)
	checkDst("MaxPool3D.Backward", gradIn, in...)
	gid := gradIn.Data()
	god := gradOut.Data()
	// Argmax indices from one (sample, channel) block always point into that
	// block's input region, so chunking on block boundaries keeps the
	// scatter-add race-free — and lets each chunk zero its own region first.
	n, c := in[0], in[1]
	outCh := len(god) / (n * c)
	inCh := len(gid) / (n * c)
	parallel.ForWorkers(m.workers, n*c, 1, func(_, lo, hi int) {
		clear(gid[lo*inCh : hi*inCh])
		for i := lo * outCh; i < hi*outCh; i++ {
			gid[m.argmax[i]] += god[i]
		}
	})
	return gradIn
}

// cachedShape is the input shape of the last Forward.
func (m *MaxPool3D) cachedShape() []int {
	if m.inShape == nil {
		panic("nn: MaxPool3D.Backward called before Forward")
	}
	return m.inShape
}
