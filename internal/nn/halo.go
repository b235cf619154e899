package nn

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Haloed activations.
//
// A K³ convolution reads its input in place inside a zero border K/2 wide
// (conv3d_gemm.go). A producer whose consumer is such a convolution — in
// training and in Infer alike, and a block's backward pass for the output
// gradient its input gradient reads — stores its output straight into the
// interior of a bordered buffer, and the consumer reads that buffer where it
// lies, with no copy in between; only a plain tensor is copied into one.
// Haloed names where such an activation lives, and HaloBuffer owns one and
// keeps its border zero.

// Haloed is an [N, C, D, H, W] activation as a buffer holds it: sample n's
// channel c is the interior of plane n·Cb + C0 + c of Buf, a
// [N, Cb, D+2P, H+2P, W+2P] tensor in which every channel volume sits inside
// a border P wide. A pass that reads or writes a Haloed touches the
// interiors of its planes only, never a border or another channel. Where the
// border is zero and P = K/2, it is the halo a K³ convolution reads in place.
// Whole(t) is a plain tensor: every channel, no border.
type Haloed struct {
	Buf   *tensor.Tensor
	C0, C int // the activation's channels among Buf's
	P     int // border width
}

// Whole is t as a Haloed: every channel, no border.
func Whole(t *tensor.Tensor) Haloed { return Haloed{Buf: t, C: t.Dim(1)} }

// Channels is the activation's window of c channels from its channel c0 on.
func (a Haloed) Channels(c0, c int) Haloed {
	if c0 < 0 || c < 0 || c0+c > a.C {
		panic(fmt.Sprintf("nn: channels [%d, %d) of a %d-channel activation", c0, c0+c, a.C))
	}
	return Haloed{Buf: a.Buf, C0: a.C0 + c0, C: c, P: a.P}
}

// shape returns the activation's [N, C, D, H, W] after checking that its
// channels and border fit its buffer.
func (a Haloed) shape(op string) (n, c, d, h, w int) {
	n, cb, dp, hp, wp := check5D(op, a.Buf)
	if a.C0 < 0 || a.C < 0 || a.C0+a.C > cb || a.P < 0 || 2*a.P > min(dp, hp, wp) {
		panic(fmt.Sprintf("nn: %s: channels [%d, %d) inside a border %d wide do not fit %v",
			op, a.C0, a.C0+a.C, a.P, a.Buf.Shape()))
	}
	return n, a.C, dp - 2*a.P, hp - 2*a.P, wp - 2*a.P
}

// geom is the geometry of the activation's planes.
func (a Haloed) geom() haloGeom {
	_, _, d, h, w := a.shape("Haloed")
	return newHaloGeom(d, h, w, a.P)
}

// plane is the offset of the first interior voxel of sample ni's channel ci.
func (a Haloed) plane(g haloGeom, ni, ci int) int {
	return (ni*a.Buf.Dim(1)+a.C0+ci)*g.vol + g.interior()
}

// whole reports whether the activation is its buffer entire: every channel,
// no border.
func (a Haloed) whole() bool { return a.P == 0 && a.C0 == 0 && a.C == a.Buf.Dim(1) }

// checkHaloedDst panics, naming both shapes, unless dst holds an
// [n, c, d, h, w] activation.
func checkHaloedDst(op string, dst Haloed, n, c, d, h, w int) {
	dn, dc, dd, dh, dw := dst.shape(op)
	if dn != n || dc != c || dd != d || dh != h || dw != w {
		panic(fmt.Sprintf("nn: %s destination [%d %d %d %d %d] (in %v, border %d), want [%d %d %d %d %d]",
			op, dn, dc, dd, dh, dw, dst.Buf.Shape(), dst.P, n, c, d, h, w))
	}
}

// HaloBuffer is a tensor.Owned whose layouts are Haloed activations with a
// zero border. An owned buffer's contents are undefined, and a layout of
// other extents puts its borders where another's interiors were, so Shaped
// zeroes every plane whose border it does not know to be zero. It keeps, for
// each geometry it has laid out, how many leading planes had their border
// zeroed then, and how far into the buffer layouts of other geometries have
// written since: the planes of that stretch, and planes past the zeroed
// ones, are cleared when the geometry comes back. That holds because every
// writer of a Haloed writes interiors only, all of them inside the layout's
// extent. A plane is cleared whole, interior too: the interior is undefined
// anyway, and one clear of a 16³ volume's plane runs about three times
// faster than the border's short runs, most of them two floats. The zero
// value is ready to use.
type HaloBuffer struct {
	o       tensor.Owned
	layouts []haloState // one per bordered geometry laid out, at most maxHaloLayouts
	last    Haloed
}

// haloState is what a HaloBuffer knows of its planes under one geometry:
// the first zeroed had a zero border when it last laid them out, and layouts
// of other geometries have since written into the buffer's first dirty
// floats.
type haloState struct {
	g             haloGeom
	zeroed, dirty int
}

// maxHaloLayouts bounds the geometries a HaloBuffer remembers. Past it, it
// forgets them all, and each is cleared whole when next laid out.
const maxHaloLayouts = 8

// Shaped returns the buffer laid out as an [n, c, d, h, w] activation, all
// of its channels, inside a border p wide that is zero throughout, zeroing
// borders on a budget of workers where it must. p = 0 is a plain tensor.
// The result aliases every earlier layout of the buffer; its interiors are
// undefined until written.
func (b *HaloBuffer) Shaped(n, c, d, h, w, p, workers int) Haloed {
	t := b.o.Shaped(n, c, d+2*p, h+2*p, w+2*p)
	if t == b.last.Buf && p == b.last.P {
		return b.last // the last layout again: only its interiors were written since
	}
	g := newHaloGeom(d, h, w, p)
	var st *haloState
	for i := range b.layouts {
		if l := &b.layouts[i]; l.g == g {
			st = l
		} else {
			l.dirty = max(l.dirty, t.Size())
		}
	}
	if p > 0 {
		if st == nil {
			if len(b.layouts) == maxHaloLayouts {
				b.layouts = b.layouts[:0]
			}
			b.layouts = append(b.layouts, haloState{g: g})
			st = &b.layouts[len(b.layouts)-1]
		}
		planes := n * c
		dirty := min(planes, (st.dirty+g.vol-1)/g.vol)
		clearPlanes(t.Data(), 0, dirty, g.vol, workers)
		clearPlanes(t.Data(), max(dirty, st.zeroed), planes, g.vol, workers)
		if planes*g.vol >= st.dirty { // else planes past these stay dirty
			st.dirty = 0
		}
		st.zeroed = max(st.zeroed, planes)
	}
	b.last = Haloed{Buf: t, C: c, P: p}
	return b.last
}

// clearPlanes zeroes planes [from, to) of data, each vol floats, on a
// budget of workers.
func clearPlanes(data []float32, from, to, vol, workers int) {
	if from >= to {
		return
	}
	parallel.ForWorkers(workers, to-from, 1, func(_, lo, hi int) {
		clear(data[(from+lo)*vol : (from+hi)*vol])
	})
}

// Layout is the activation the last Shaped returned; zero before the first
// and after Release.
func (b *HaloBuffer) Layout() Haloed { return b.last }

// Release drops the buffer for the garbage collector.
func (b *HaloBuffer) Release() { *b = HaloBuffer{} }
