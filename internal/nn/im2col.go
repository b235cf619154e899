package nn

import (
	"repro/internal/gemm"
	"repro/internal/parallel"
)

// im2col / col2im lowering for the GEMM convolution engine.
//
// For a stride-1, same-padded cubic convolution the patch matrix P has one
// row per (input-channel, kz, ky, kx) kernel tap and one column per output
// voxel (z, y, x) in scan order: P[r, c] is the input value that tap r reads
// when producing voxel c, or 0 where the tap falls in the zero padding.
// Row r of P is then just the input channel volume shifted by the tap
// offset, so each row is built from contiguous row copies plus zeroed
// padding runs — no per-element index arithmetic.
//
// Both directions are parallelized over single-owner partitions (patch rows
// for the gather, input channels for the scatter-add) with a fixed
// traversal order, so they are bit-for-bit independent of the worker
// budget, matching the determinism contract of internal/gemm.

// im2col fills patch ([ic·k³, d·h·w] row-major) with the patch matrix of
// one sample's input slab x ([ic, d, h, w] row-major).
func im2col(x []float32, ic, d, h, w, k, p int, patch []float32, workers int) {
	cols := d * h * w
	kk := k * k * k
	parallel.ForWorkers(workers, ic*kk, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			tap := r % kk
			dz, dy, dx := tap/(k*k)-p, (tap/k)%k-p, tap%k-p
			dst := patch[r*cols : (r+1)*cols]
			src := x[(r/kk)*cols : (r/kk+1)*cols]
			z0, z1 := tapRange(dz, d)
			y0, y1 := tapRange(dy, h)
			x0, x1 := tapRange(dx, w)
			if z0 >= z1 || y0 >= y1 || x0 >= x1 {
				clear(dst) // the tap only ever reads padding
				continue
			}
			clear(dst[:z0*h*w])
			clear(dst[z1*h*w:])
			shift := (dz*h+dy)*w + dx
			for z := z0; z < z1; z++ {
				plane := dst[z*h*w : (z+1)*h*w]
				clear(plane[:y0*w])
				clear(plane[y1*w:])
				// Rows y0..y1 of the plane are the same rows of the shifted
				// source, so one copy from the first valid voxel to the last
				// moves them all; where dx != 0 it also drags each row's
				// wrapped-around neighbours into the padding columns, which
				// are zeroed afterwards.
				run := plane[y0*w+x0 : (y1-1)*w+x1]
				copy(run, src[z*h*w+y0*w+x0+shift:])
				if x1-x0 < w {
					// At most k/2 voxels per side: plain stores beat clear.
					for y := y0; y < y1; y++ {
						row := plane[y*w : (y+1)*w]
						for i := 0; i < x0; i++ {
							row[i] = 0
						}
						for i := x1; i < w; i++ {
							row[i] = 0
						}
					}
				}
			}
		}
	})
}

// tapOffsets holds the precomputed (dz, dy, dx) input offset of every
// kernel tap, indexed by patch row r % k³. The kernel edge is fixed per
// layer, so conv layers build the table once and reuse it across calls.
type tapOffsets struct {
	dzs, dys, dxs []int
}

func newTapOffsets(k, p int) *tapOffsets {
	kk := k * k * k
	t := &tapOffsets{
		dzs: make([]int, kk),
		dys: make([]int, kk),
		dxs: make([]int, kk),
	}
	for tap := 0; tap < kk; tap++ {
		t.dzs[tap] = tap/(k*k) - p
		t.dys[tap] = (tap/k)%k - p
		t.dxs[tap] = tap%k - p
	}
	return t
}

// im2colPackB returns a gemm.PackBFunc that packs blocks of the im2col
// patch matrix of one sample directly from the input slab x ([ic, d, h, w]
// row-major) — the fused-packing path of the inference forward. The patch
// matrix never exists in memory, but every packed element is the same
// input load (or padding zero) that packB would copy out of the im2col
// output, so GemmPackB over this function is bit-for-bit identical to Gemm
// over the materialized matrix. taps must be newTapOffsets(k, p).
func im2colPackB(x []float32, ic, d, h, w, k, p int, taps *tapOffsets) gemm.PackBFunc {
	cols := d * h * w
	kk := k * k * k
	dzs, dys, dxs := taps.dzs, taps.dys, taps.dxs
	const nr = gemm.PanelCols
	return func(p0, pw, j0, jw int, dst []float32) {
		for jp := 0; jp*nr < jw; jp++ {
			out := dst[jp*pw*nr : (jp+1)*pw*nr]
			clear(out) // padding, until a run below says otherwise
			colN := min(nr, jw-jp*nr)
			// Consecutive panel columns are consecutive output voxels in x
			// scan order, so the panel splits into runs that each sit in one
			// x-row: a single run while w >= nr, nr/w of them on the
			// network's narrower levels. Within a run the z/y bounds checks
			// and the x clamp are per tap, not per element.
			for jj := 0; jj < colN; {
				c := j0 + jp*nr + jj
				cz, cy, cx := c/(w*h), (c/w)%h, c%w
				n := min(w-cx, colN-jj)
				tap := p0 % kk
				base := (p0 / kk) * cols // input-channel slab of row p0
				for pp := 0; pp < pw; pp++ {
					iz, iy, dx := cz+dzs[tap], cy+dys[tap], dxs[tap]
					// Valid part of the run: 0 <= cx+i+dx < w, i in [0, n).
					lo, hi := max(0, -cx-dx), min(n, w-cx-dx)
					if uint(iz) < uint(d) && uint(iy) < uint(h) && lo < hi {
						s := base + (iz*h+iy)*w + cx + dx
						copy(out[pp*nr+jj+lo:pp*nr+jj+hi], x[s+lo:s+hi])
					}
					if tap++; tap == kk {
						tap = 0
						base += cols
					}
				}
				jj += n
			}
		}
	}
}

// tapRange returns the output range [lo, hi) along one axis of extent n for
// which a tap offset by delta stays inside the volume (0 <= i+delta < n),
// clamped to [0, n] with hi >= lo — for half-widths larger than the volume
// (e.g. a 5³ kernel on a width-1 row) some taps have an empty range.
func tapRange(delta, n int) (lo, hi int) {
	lo, hi = max(0, -delta), min(n, n-delta)
	return min(lo, n), max(hi, min(lo, n))
}

// col2imAdd scatter-adds the patch-gradient matrix gradP ([ic·k³, d·h·w])
// into one sample's input-gradient slab gradIn ([ic, d, h, w]). Each input
// channel is a single-owner partition; within it, taps are visited in
// ascending order and a tap adds to each voxel at most once, so the
// accumulation order per element is fixed for every worker budget.
func col2imAdd(gradP []float32, ic, d, h, w, k, p int, gradIn []float32, workers int) {
	cols := d * h * w
	kk := k * k * k
	parallel.ForWorkers(workers, ic, 1, func(lo, hi int) {
		for ici := lo; ici < hi; ici++ {
			dst := gradIn[ici*cols : (ici+1)*cols]
			for tap := 0; tap < kk; tap++ {
				dz, dy, dx := tap/(k*k)-p, (tap/k)%k-p, tap%k-p
				src := gradP[(ici*kk+tap)*cols : (ici*kk+tap+1)*cols]
				z0, z1 := tapRange(dz, d)
				y0, y1 := tapRange(dy, h)
				x0, x1 := tapRange(dx, w)
				if y0 >= y1 || x0 >= x1 {
					continue
				}
				// Per plane, rows y0..y1 of the tap's valid box land on the
				// same rows of the shifted destination.
				shift := (dz*h+dy)*w + dx
				rows, n := y1-y0, x1-x0
				for z := z0; z < z1; z++ {
					o := (z*h+y0)*w + x0
					end := o + (rows-1)*w + n
					addRows(dst[o+shift:end+shift], src[o:end], rows, n, w)
				}
			}
		}
	})
}
