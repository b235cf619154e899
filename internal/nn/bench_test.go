package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// Benchmark configuration: a mid-network U-Net layer shape (16 channels at
// 16^3 after two pooling steps of a 64^3 input, batch 2).
const (
	benchN   = 2
	benchIC  = 8
	benchOC  = 16
	benchDim = 16
)

func benchInput(seed int64, c int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(benchN, c, benchDim, benchDim, benchDim)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// budgets are the worker counts benchmarked against the serial reference;
// the speedup claim in the README compares serial vs workers=NumCPU.
func budgets() []int {
	set := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		set = append(set, n)
	}
	return set
}

func BenchmarkConv3DForward(b *testing.B) {
	x := benchInput(1, benchIC)
	b.Run("serial", func(b *testing.B) {
		c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.forwardSerial(x)
		}
	})
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}

func BenchmarkConv3DBackward(b *testing.B) {
	x := benchInput(1, benchIC)
	g := benchInput(3, benchOC)
	b.Run("serial", func(b *testing.B) {
		c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
		c.forwardSerial(x)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.backwardSerial(g)
		}
	})
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			c.Forward(x)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Backward(g)
			}
		})
	}
}

func BenchmarkConvTranspose3DForward(b *testing.B) {
	x := benchInput(1, benchIC)
	b.Run("serial", func(b *testing.B) {
		c := NewConvTranspose3D("c", benchIC, benchOC, 2, rand.New(rand.NewSource(2)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.forwardSerial(x)
		}
	})
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConvTranspose3D("c", benchIC, benchOC, 2, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}

func BenchmarkConvTranspose3DBackward(b *testing.B) {
	x := benchInput(1, benchIC)
	rng := rand.New(rand.NewSource(3))
	g := tensor.New(benchN, benchOC, 2*benchDim, 2*benchDim, 2*benchDim)
	gd := g.Data()
	for i := range gd {
		gd[i] = float32(rng.NormFloat64())
	}
	b.Run("serial", func(b *testing.B) {
		c := NewConvTranspose3D("c", benchIC, benchOC, 2, rand.New(rand.NewSource(2)))
		c.forwardSerial(x)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.backwardSerial(g)
		}
	})
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConvTranspose3D("c", benchIC, benchOC, 2, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			c.Forward(x)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Backward(g)
			}
		})
	}
}

// BenchmarkConv3DBackwardWeights isolates the kernel-gradient pass of the
// GEMM backward: per-sample partial products (gemm.GemmBatch over
// sample × column block) reduced in fixed order. Batch 4 instead of the
// usual 2 so the batch-scaled parallel degree is visible: the pass used to
// cap at ⌈IC·K³/256⌉ = 1 column block regardless of the worker budget.
func BenchmarkConv3DBackwardWeights(b *testing.B) {
	const batch = 4
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 0, 1, batch, benchIC, benchDim, benchDim, benchDim)
	g := tensor.Randn(rng, 0, 1, batch, benchOC, benchDim, benchDim, benchDim)
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			c.Forward(x)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.weightGradGEMM(g)
			}
		})
	}
}

// BenchmarkConv3DBackwardInput isolates the input-gradient pass (a forward
// convolution of gOut with the flipped kernel) for the step-time breakdown.
func BenchmarkConv3DBackwardInput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 0, 1, benchN, benchIC, benchDim, benchDim, benchDim)
	g := tensor.Randn(rng, 0, 1, benchN, benchOC, benchDim, benchDim, benchDim)
	gid := tensor.New(benchN, benchIC, benchDim, benchDim, benchDim)
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			c.Forward(x)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.inputGradGEMM(Whole(g), gid)
			}
		})
	}
}

// BenchmarkConv3DInfer measures the inference forward, which caches nothing;
// BenchmarkConv3DForward runs the same kernel and caches the input.
func BenchmarkConv3DInfer(b *testing.B) {
	x := benchInput(1, benchIC)
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, benchOC, 3, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Infer(x)
			}
		})
	}
}

// BenchmarkConv3DHeadForward measures the 1×1×1 OC=1 sigmoid-head shape,
// whose parallelism comes from column blocks alone.
func BenchmarkConv3DHeadForward(b *testing.B) {
	x := benchInput(1, benchIC)
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := NewConv3D("c", benchIC, 1, 1, rand.New(rand.NewSource(2)))
			c.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}

func BenchmarkBatchNormForward(b *testing.B) {
	x := benchInput(1, benchOC)
	for _, w := range append([]int{0}, budgets()...) {
		name := "default"
		if w > 0 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			bn := NewBatchNorm("bn", benchOC)
			bn.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bn.Forward(x)
			}
		})
	}
}

// BenchmarkMaxPool3D pools a post-ReLU activation — about half its elements
// +0, so which element of a window wins is unpredictable — at the first
// pooling site of a serving micro-batch: 4 samples, 8 channels of 16³.
func BenchmarkMaxPool3D(b *testing.B) {
	x := tensor.Randn(rand.New(rand.NewSource(1)), 0, 1, 4, 8, 16, 16, 16)
	for i, v := range x.Data() {
		x.Data()[i] = max(v, 0)
	}
	for _, w := range budgets() {
		b.Run(fmt.Sprintf("infer/workers=%d", w), func(b *testing.B) {
			p := NewMaxPool3D(2)
			p.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Infer(x)
			}
		})
		b.Run(fmt.Sprintf("forward/workers=%d", w), func(b *testing.B) {
			p := NewMaxPool3D(2)
			p.SetWorkers(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Forward(x)
			}
		})
	}
}

// BenchmarkConvBNReLU times the training block at the benchmark network's
// top body site — batch 2, 8 → 8 channels of 16³, k = 3 — at the default
// worker budget: forward is the convolution plus the statistics and
// normalize-and-rectify passes, backward the ReLU/BatchNorm gradient passes
// plus the convolution's three. Backward overwrites its gradient, so each
// iteration starts from a fresh copy, outside the timer.
func BenchmarkConvBNReLU(b *testing.B) {
	x := benchInput(1, benchIC)
	g := benchInput(3, benchIC)
	block := NewConvBNReLU("b", benchIC, benchIC, 3, rand.New(rand.NewSource(2)))
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			block.Forward(x)
		}
	})
	b.Run("backward", func(b *testing.B) {
		block.Forward(x)
		grad := g.Clone()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(grad.Data(), g.Data())
			b.StartTimer()
			block.Backward(grad)
		}
	})
}
