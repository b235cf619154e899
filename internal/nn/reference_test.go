package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// The single-threaded direct-loop convolution kernels: the reference every
// convolution test measures the GEMM passes against (TestConvParity)
// and the "serial" variant of the benchmarks. They live in a test file, so
// no binary links them.

// forwardSerial is the original single-threaded kernel, kept as the golden
// reference for the equality tests and benchmarks.
func (c *Conv3D) forwardSerial(x *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := check5D("Conv3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: Conv3D expects %d input channels, got %d", c.InChannels, ic))
	}
	c.input = Whole(x)
	k := c.Kernel
	p := k / 2
	out := tensor.New(n, c.OutChannels, d, h, w)

	xd := x.Data()
	od := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk

	for ni := 0; ni < n; ni++ {
		inBase := ni * sampleStrideIn
		outBase := ni * sampleStrideOut
		for oc := 0; oc < c.OutChannels; oc++ {
			bias := bd[oc]
			oBase := outBase + oc*chStride
			wBase := oc * wOCStride
			for z := 0; z < d; z++ {
				kz0, kz1 := kernelRange(z, p, k, d)
				for y := 0; y < h; y++ {
					ky0, ky1 := kernelRange(y, p, k, h)
					for xx := 0; xx < w; xx++ {
						kx0, kx1 := kernelRange(xx, p, k, w)
						acc := bias
						for icI := 0; icI < ic; icI++ {
							iBase := inBase + icI*chStride
							wcBase := wBase + icI*kk
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := iBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										acc += xd[iRow+xx+kx-p] * wd[wRow+kx]
									}
								}
							}
						}
						od[oBase+z*planeStride+y*rowStride+xx] = acc
					}
				}
			}
		}
	}
	return out
}

// backwardSerial is the original fused single-threaded backward kernel, kept
// as the golden reference for the equality tests and benchmarks.
func (c *Conv3D) backwardSerial(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.cachedInput().Buf
	n, ic, d, h, w := check5D("Conv3D.Backward", x)
	k := c.Kernel
	p := k / 2
	gradIn := tensor.New(x.Shape()...)

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()
	gbd := c.B.Grad.Data()

	chStride := d * h * w
	rowStride := w
	planeStride := h * w
	sampleStrideIn := ic * chStride
	sampleStrideOut := c.OutChannels * chStride
	kk := k * k * k
	wOCStride := c.InChannels * kk

	for ni := 0; ni < n; ni++ {
		inBase := ni * sampleStrideIn
		outBase := ni * sampleStrideOut
		for oc := 0; oc < c.OutChannels; oc++ {
			oBase := outBase + oc*chStride
			wBase := oc * wOCStride
			var biasAcc float32
			for z := 0; z < d; z++ {
				kz0, kz1 := kernelRange(z, p, k, d)
				for y := 0; y < h; y++ {
					ky0, ky1 := kernelRange(y, p, k, h)
					for xx := 0; xx < w; xx++ {
						g := god[oBase+z*planeStride+y*rowStride+xx]
						if g == 0 {
							continue
						}
						biasAcc += g
						kx0, kx1 := kernelRange(xx, p, k, w)
						for icI := 0; icI < ic; icI++ {
							iBase := inBase + icI*chStride
							wcBase := wBase + icI*kk
							for kz := kz0; kz < kz1; kz++ {
								iz := z + kz - p
								for ky := ky0; ky < ky1; ky++ {
									iy := y + ky - p
									iRow := iBase + iz*planeStride + iy*rowStride
									wRow := wcBase + kz*k*k + ky*k
									for kx := kx0; kx < kx1; kx++ {
										ii := iRow + xx + kx - p
										gwd[wRow+kx] += xd[ii] * g
										gid[ii] += wd[wRow+kx] * g
									}
								}
							}
						}
					}
				}
			}
			gbd[oc] += biasAcc
		}
	}
	return gradIn
}

// kernelRange returns [k0, k1) such that pos+kz-p stays within [0, dim).
func kernelRange(pos, p, k, dim int) (int, int) {
	k0 := p - pos
	if k0 < 0 {
		k0 = 0
	}
	k1 := dim + p - pos
	if k1 > k {
		k1 = k
	}
	return k0, k1
}

// forwardSerial is the original single-threaded kernel, kept as the golden
// reference for the equality tests and benchmarks.
func (c *ConvTranspose3D) forwardSerial(x *tensor.Tensor) *tensor.Tensor {
	n, ic, d, h, w := check5D("ConvTranspose3D", x)
	if ic != c.InChannels {
		panic(fmt.Sprintf("nn: ConvTranspose3D expects %d input channels, got %d", c.InChannels, ic))
	}
	c.input = x
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	out := tensor.New(n, c.OutChannels, od, oh, ow)

	xd := x.Data()
	outd := out.Data()
	wd := c.W.Value.Data()
	bd := c.B.Value.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k

	// Initialize with bias.
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutChannels; oc++ {
			base := (ni*c.OutChannels + oc) * outCh
			bias := bd[oc]
			seg := outd[base : base+outCh]
			for i := range seg {
				seg[i] = bias
			}
		}
	}

	for ni := 0; ni < n; ni++ {
		for icI := 0; icI < ic; icI++ {
			iBase := (ni*ic + icI) * inCh
			for oc := 0; oc < c.OutChannels; oc++ {
				oBase := (ni*c.OutChannels + oc) * outCh
				wBase := (icI*c.OutChannels + oc) * kk
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						iRow := iBase + (z*h+y)*w
						for xx := 0; xx < w; xx++ {
							v := xd[iRow+xx]
							if v == 0 {
								continue
							}
							for kz := 0; kz < k; kz++ {
								oz := z*k + kz
								for ky := 0; ky < k; ky++ {
									oy := y*k + ky
									oRow := oBase + (oz*oh+oy)*ow + xx*k
									wRow := wBase + (kz*k+ky)*k
									for kx := 0; kx < k; kx++ {
										outd[oRow+kx] += v * wd[wRow+kx]
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// backwardSerial is the original fused single-threaded backward kernel, kept
// as the golden reference for the equality tests and benchmarks.
func (c *ConvTranspose3D) backwardSerial(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.input == nil {
		panic("nn: ConvTranspose3D.Backward called before Forward")
	}
	x := c.input
	n, ic, d, h, w := check5D("ConvTranspose3D.Backward", x)
	k := c.Kernel
	od, oh, ow := d*k, h*k, w*k
	gradIn := tensor.New(x.Shape()...)

	xd := x.Data()
	gid := gradIn.Data()
	god := gradOut.Data()
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()
	gbd := c.B.Grad.Data()

	inCh := d * h * w
	outCh := od * oh * ow
	kk := k * k * k

	// Bias gradient: sum of gradOut per output channel.
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutChannels; oc++ {
			base := (ni*c.OutChannels + oc) * outCh
			var acc float32
			for _, g := range god[base : base+outCh] {
				acc += g
			}
			gbd[oc] += acc
		}
	}

	for ni := 0; ni < n; ni++ {
		for icI := 0; icI < ic; icI++ {
			iBase := (ni*ic + icI) * inCh
			for oc := 0; oc < c.OutChannels; oc++ {
				oBase := (ni*c.OutChannels + oc) * outCh
				wBase := (icI*c.OutChannels + oc) * kk
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						iRow := iBase + (z*h+y)*w
						for xx := 0; xx < w; xx++ {
							v := xd[iRow+xx]
							var acc float32
							for kz := 0; kz < k; kz++ {
								oz := z*k + kz
								for ky := 0; ky < k; ky++ {
									oy := y*k + ky
									oRow := oBase + (oz*oh+oy)*ow + xx*k
									wRow := wBase + (kz*k+ky)*k
									for kx := 0; kx < k; kx++ {
										g := god[oRow+kx]
										acc += wd[wRow+kx] * g
										gwd[wRow+kx] += v * g
									}
								}
							}
							gid[iRow+xx] += acc
						}
					}
				}
			}
		}
	}
	return gradIn
}

// maxPoolSerial is the branchy single-threaded pooling loop MaxPool3D ran
// before its windows became selects: the reference for its values and
// winners. An element replaces the running maximum only when it is greater.
func maxPoolSerial(x *tensor.Tensor, s int) (*tensor.Tensor, []int32) {
	n, c, d, h, w := check5D("MaxPool3D", x)
	od, oh, ow := d/s, h/s, w/s
	out := tensor.New(n, c, od, oh, ow)
	argmax := make([]int32, out.Size())
	xd, outd := x.Data(), out.Data()
	oi := 0
	for blk := 0; blk < n*c; blk++ {
		base := blk * d * h * w
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
					argmax[oi] = int32(bestIdx)
					oi++
				}
			}
		}
	}
	return out, argmax
}

// Sequential chains layers: the small networks the layer tests compose
// (TestUNetWorkerCountInvariant, the Infer tests). No program builds one.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs x through every layer's Forward in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates gradOut through the layers in reverse order.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Infer runs x through every layer's Infer.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Infer(x)
	}
	return x
}

// Params returns the parameters of all layers in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SetWorkers forwards the worker budget to every parallel-capable layer.
func (s *Sequential) SetWorkers(workers int) {
	for _, l := range s.Layers {
		if w, ok := l.(WorkerSetter); ok {
			w.SetWorkers(workers)
		}
	}
}
