package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Parity tests: the GEMM convolution passes must reproduce the serial direct
// reference (reference_test.go) within a small float32 reassociation
// tolerance at every worker budget, and be bit-for-bit the same at every
// budget.
//
// The tolerance is expressed in ULPs (units in the last place): the GEMM
// sums the same products as the serial kernel but groups them into register
// tiles and kcBlock-deep slices, so each result drifts by at most a few
// rounding steps per reassociation boundary. The bounds below (64 ULP for
// forward passes, 1024 ULP for gradient reductions over thousands of terms,
// with an absolute floor for catastrophic-cancellation near zero) hold with
// ~10x margin over the worst drift observed across all tested shapes.
const (
	forwardMaxULP  = 64
	backwardMaxULP = 1024
	absFloor       = 1e-5
)

// ulpDiff returns the distance between a and b in float32 representation
// steps (0 when bitwise equal).
func ulpDiff(a, b float32) uint32 {
	if a == b {
		return 0
	}
	d := monotonicBits(b) - monotonicBits(a)
	if d > 0x80000000 {
		d = -d
	}
	return d
}

// monotonicBits maps float32 onto an order-preserving uint32 scale.
func monotonicBits(f float32) uint32 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return 0x80000000 - (b & 0x7fffffff)
	}
	return b + 0x80000000
}

func assertWithinULP(t *testing.T, what string, workers int, want, got []float32, maxULP uint32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s (workers=%d): length %d != %d", what, workers, len(got), len(want))
	}
	var worst uint32
	for i := range want {
		d := ulpDiff(want[i], got[i])
		if d > worst {
			worst = d
		}
		// The negated <= form fails on NaN too (NaN > x and NaN <= x are
		// both false): a NaN element must never pass as "within tolerance".
		if d > maxULP && !(math.Abs(float64(want[i]-got[i])) <= absFloor) {
			t.Fatalf("%s (workers=%d): element %d = %v, want %v (%d ULP > %d)",
				what, workers, i, got[i], want[i], d, maxULP)
		}
	}
	t.Logf("%s (workers=%d): max drift %d ULP", what, workers, worst)
}

var parityBudgets = []int{1, 2, 7, 16}

// TestConvParity compares the convolution against the serial direct
// reference across kernel sizes {1,3,5}, odd volume shapes and worker
// budgets, then checks every budget produces the same bits.
func TestConvParity(t *testing.T) {
	cases := []struct {
		name         string
		inC, outC, k int
		n, d, h, w   int
	}{
		{"body3x3x3", 3, 5, 3, 2, 6, 5, 7},
		{"head1x1x1", 4, 1, 1, 2, 5, 3, 7},
		{"kernel5", 2, 3, 5, 1, 7, 5, 9},
		{"oddvolume", 5, 4, 3, 3, 3, 7, 5},
		{"singlevoxelish", 2, 2, 3, 1, 1, 1, 3},
		// Spatial dims smaller than the kernel half-width: some taps have
		// an empty valid range (regression test for an im2col slice panic).
		{"kernel5narrow", 1, 2, 5, 1, 4, 4, 1},
		// The paper U-Net's layer shapes, at odd volumes.
		{"paperbody4to8", 4, 8, 3, 2, 5, 6, 7},
		{"paperbody8to8", 8, 8, 3, 1, 3, 7, 5},
		{"paperskip24to8", 24, 8, 3, 1, 3, 4, 5},
		{"paperhead8to1", 8, 1, 1, 2, 3, 5, 7},
		// Degenerate volumes: every plane/row is boundary.
		{"paperbody4to8tiny", 4, 8, 3, 1, 2, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)
			gradOut := randTensor(rng, tc.n, tc.outC, tc.d, tc.h, tc.w)

			ref := NewConv3D("ref", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(8)))
			refOut := ref.forwardSerial(x)
			refIn := ref.backwardSerial(gradOut)

			var base *Conv3D
			var baseOut, baseIn []float32
			for _, workers := range parityBudgets {
				c := NewConv3D("c", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(8)))
				c.SetWorkers(workers)
				out := c.Forward(x).Data()
				in := c.Backward(gradOut).Data()
				assertWithinULP(t, "forward", workers, refOut.Data(), out, forwardMaxULP)
				assertWithinULP(t, "input grad", workers, refIn.Data(), in, backwardMaxULP)
				assertWithinULP(t, "kernel grad", workers, ref.W.Grad.Data(), c.W.Grad.Data(), backwardMaxULP)
				// The bias pass sums in the serial reference's order.
				assertBitEqual(t, "bias grad", workers, ref.B.Grad.Data(), c.B.Grad.Data())

				// Bit-for-bit invariance across worker budgets is what keeps
				// mirrored replicas in sync.
				if base == nil {
					base, baseOut, baseIn = c, out, in
					continue
				}
				assertBitEqual(t, "forward invariance", workers, baseOut, out)
				assertBitEqual(t, "input grad invariance", workers, baseIn, in)
				assertBitEqual(t, "kernel grad invariance", workers, base.W.Grad.Data(), c.W.Grad.Data())
			}
		})
	}
}

// TestConvTransposeEngineParity is the transposed-convolution analogue.
func TestConvTransposeEngineParity(t *testing.T) {
	cases := []struct {
		name         string
		inC, outC, k int
		n, d, h, w   int
	}{
		{"up2x2x2", 6, 3, 2, 2, 3, 4, 5},
		{"narrow", 1, 2, 2, 1, 3, 1, 5},
		{"wide3", 4, 4, 3, 2, 3, 3, 3},
		// The paper U-Net's up-convolution shape.
		{"paperup16to16", 16, 16, 2, 2, 3, 2, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)
			gradOut := randTensor(rng, tc.n, tc.outC, tc.d*tc.k, tc.h*tc.k, tc.w*tc.k)

			ref := NewConvTranspose3D("ref", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(9)))
			refOut := ref.forwardSerial(x)
			refIn := ref.backwardSerial(gradOut)

			var base *ConvTranspose3D
			var baseOut, baseIn []float32
			for _, workers := range parityBudgets {
				c := NewConvTranspose3D("c", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(9)))
				c.SetWorkers(workers)
				out := c.Forward(x).Data()
				in := c.Backward(gradOut).Data()
				assertWithinULP(t, "forward", workers, refOut.Data(), out, forwardMaxULP)
				assertWithinULP(t, "input grad", workers, refIn.Data(), in, backwardMaxULP)
				assertWithinULP(t, "kernel grad", workers, ref.W.Grad.Data(), c.W.Grad.Data(), backwardMaxULP)
				// The bias pass sums in the serial reference's order.
				assertBitEqual(t, "bias grad", workers, ref.B.Grad.Data(), c.B.Grad.Data())

				if base == nil {
					base, baseOut, baseIn = c, out, in
					continue
				}
				assertBitEqual(t, "forward invariance", workers, baseOut, out)
				assertBitEqual(t, "input grad invariance", workers, baseIn, in)
				assertBitEqual(t, "kernel grad invariance", workers, base.W.Grad.Data(), c.W.Grad.Data())
			}
		})
	}
}
