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
// gradients are disjoint from every other block's. Forward records each
// window's winner for Backward, Infer's passes record none; both pool
// 2×2×2 windows in AVX2 where the CPU has it, bit for bit their Go loop.
type MaxPool3D struct {
	workerBudget

	Size int

	inShape []int
	argmax  []int32 // flat input index of each output element's winner
	win     []int   // the running pass's window offsets in its input's buffer
	taps    []int32 // the last Forward's window offsets, from x's buffer to the plain input
	args    argPool // the last Forward's geometry, for the assembly
}

// NewMaxPool3D creates a cubic max-pool with stride equal to size.
func NewMaxPool3D(size int) *MaxPool3D { return &MaxPool3D{Size: size} }

// Params returns nil: pooling has no trainable parameters.
func (m *MaxPool3D) Params() []*Param { return nil }

// DropCaches drops the argmax record. Backward requires a fresh Forward
// afterwards.
func (m *MaxPool3D) DropCaches() { m.inShape, m.argmax, m.taps = nil, nil, nil }

// Forward is ForwardInto a fresh tensor.
func (m *MaxPool3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, od, oh, ow := m.outShape(x)
	return m.ForwardInto(x, tensor.New(n, c, od, oh, ow))
}

// ForwardInto downsamples x from [N, C, D, H, W] into dst
// ([N, C, D/s, H/s, W/s]) and records each window's winner for Backward.
func (m *MaxPool3D) ForwardInto(x, dst *tensor.Tensor) *tensor.Tensor {
	m.ForwardHaloed(Whole(x), Whole(dst))
	return dst
}

// ForwardHaloed is ForwardInto between haloed activations: it reads x's
// interiors and writes dst's, and nothing else of either buffer. Backward
// reads neither: its gradients are plain tensors.
func (m *MaxPool3D) ForwardHaloed(x, dst Haloed) {
	n, c, d, h, w := x.shape("MaxPool3D")
	m.inShape = append(m.inShape[:0], n, c, d, h, w)
	size := n * c * (d / m.Size) * (h / m.Size) * (w / m.Size)
	if cap(m.argmax) < size {
		m.argmax = make([]int32, size)
	}
	m.argmax = m.argmax[:size]
	m.pool(x, dst, m.argmax)
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
// non-nil, the index of its winner. Within a window the elements are
// visited in (z, y, x) order and one replaces the running maximum only when
// it is greater, so a NaN never does (and a NaN first element stays), and
// the first of equal maxima wins, +0 and −0 included. Four windows of a row
// are stepped abreast, each in its own order: one window's selects are a
// chain of dependent compares. A 2×2×2 pool runs each row's leading
// multiple of 8 windows in AVX2 where it is live — maxPoolVec without
// argmax (Infer's passes), maxPoolArgVec with it: eight windows a step, each
// by the same rule, the running maximum replaced where the new element is
// greater — and this loop the rest. Only interiors are read and written.
// argmax is plain whatever the buffers' borders and channel windows: entry
// i is pooled voxel i of the [N, C, D/s, H/s, W/s] result, and holds its
// winner's index in the [N, C, D, H, W] input.
func (m *MaxPool3D) pool(x, out Haloed, argmax []int32) { m.poolAs(x, out, argmax, useAsm) }

// poolAs is pool, with the assembly or, when asm is false, the Go loop
// alone.
func (m *MaxPool3D) poolAs(x, out Haloed, argmax []int32, asm bool) {
	n, c, od, oh, ow := m.pooledShape(x)
	checkHaloedDst("MaxPool3D", out, n, c, od, oh, ow)
	gx, gout := x.geom(), out.geom()
	s := m.Size
	xd, outd := x.Buf.Data(), out.Buf.Data()
	// Each window element's offset from its corner in x's buffer, in
	// visiting order, and, for argmax, its offset in the plain input at
	// m.taps[that offset]; the assembly's 2×2×2 offsets in m.args.taps.
	win := m.win[:0]
	for kz := 0; kz < s; kz++ {
		for ky := 0; ky < s; ky++ {
			for kx := 0; kx < s; kx++ {
				win = append(win, (kz*gx.hp+ky)*gx.wp+kx)
			}
		}
	}
	m.win = win
	if argmax != nil {
		if last := win[len(win)-1]; len(m.taps) <= last {
			m.taps = make([]int32, last+1)
		}
		for i, off := range win {
			kz, ky, kx := i/(s*s), i/s%s, i%s
			m.taps[off] = int32((kz*gx.h+ky)*gx.w + kx)
			if s == 2 {
				m.args.taps[i] = m.taps[off]
			}
		}
		m.args.wp, m.args.plane, m.args.owp, m.args.aw, m.args.w2 = gx.wp, gx.hp*gx.wp, gout.wp, ow, 2*gx.w
		m.args.oh, m.args.blocks, m.args.half = oh, ow/8, ow%8/4
	}
	taps, args := m.taps, &m.args
	parallel.ForWorkers(m.workers, n*c, 1, func(_, lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			base := x.plane(gx, blk/c, blk%c)
			obase := out.plane(gout, blk/c, blk%c)
			done := 0 // the leading pooled voxels of every row the assembly did
			if asm && s == 2 {
				if argmax == nil {
					done = maxPoolVec(outd[obase:], xd[base:], gx.wp, gx.hp*gx.wp, gout.wp, gout.hp*gout.wp, od, oh, ow)
				} else {
					for z := 0; z < od; z++ {
						done = maxPoolArgVec(outd[obase+z*gout.hp*gout.wp:], argmax[(blk*od+z)*oh*ow:],
							xd[base+2*z*gx.hp*gx.wp:], (blk*gx.d+2*z)*gx.h*gx.w, args)
					}
				}
			}
			if done == ow {
				continue
			}
			for z := 0; z < od; z++ {
				for y := 0; y < oh; y++ {
					row := base + (z*s*gx.hp+y*s)*gx.wp
					oi := obase + (z*gout.hp+y)*gout.wp + done
					if argmax == nil {
						poolRow(outd[oi:], nil, xd, row, win, s, done, ow)
						continue
					}
					// The winners' offsets from their corners, then their
					// indices in the plain input.
					prow := (blk*gx.d+z*s)*gx.h*gx.w + y*s*gx.w
					at := argmax[((blk*od+z)*oh+y)*ow+done:][:ow-done]
					poolRow(outd[oi:], at, xd, row, win, s, done, ow)
					for i, a := range at {
						at[i] = int32(prow+(done+i)*s) + taps[a]
					}
				}
			}
		}
	})
}

// poolRow is pool's Go loop over one row of windows from window from on:
// window w's corner at xd[row + w·s], its maximum into out[w − from] and,
// when at is set, its winner's offset from the corner into at[w − from].
func poolRow(out []float32, at []int32, xd []float32, row int, win []int, s, from, ow int) {
	for xx := from; xx < ow; xx += 4 {
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
		i, live := xx-from, min(4, ow-xx)
		best := [4]float32{b0, b1, b2, b3}
		copy(out[i:i+live], best[:])
		if at != nil {
			won := [4]int32{int32(a0 - c0), int32(a1 - c1), int32(a2 - c2), int32(a3 - c3)}
			copy(at[i:i+live], won[:])
		}
	}
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
