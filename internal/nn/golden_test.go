package nn

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/tensor"
)

// convGolden holds FNV-1a hashes of what Conv3D produces
// that must never move: the forward output (training Forward and Infer, which
// are one code path and must hash alike) and the kernel and bias gradients.
// They were captured at commit cdda719 — the parent of the patch-matrix-free
// rewrite, where the forward multiplied an im2col matrix and the kernel
// gradient read the patch cache — by running this test there with
// REPRO_GOLDEN_PRINT=1, so a pass means the haloed packers hand the
// microkernel the same panels in the same order. The first ten cases are the
// benchmark network's 3³ sites at batch 2; the rest are the shapes a packer
// gets wrong first.
//
// The input gradient is not pinned: it is one K = OC·K³ dot per element where
// the parent scatter-added K³ separate K = OC dots, a different rounding
// order. It is held to the serial direct reference by TestConvParity and,
// here, to being the same bits at every worker count.
var convGolden = map[string]uint64{
	"site 4->8 16^3":        0xd05e9f5fb289111b,
	"site 8->8 16^3":        0x01261ff0b0249e2a,
	"site 8->16 8^3":        0x252140140e3af0ff,
	"site 16->16 8^3":       0x031012a75c07b399,
	"site 16->32 4^3":       0x0c22725ea3ca263e,
	"site 32->32 4^3":       0x715a31819ba0b978,
	"site 48->16 8^3":       0x88a2759eeb022153,
	"site 16->16 8^3 (dec)": 0x50aec0d69343b8ad,
	"site 24->8 16^3":       0x8f7b8ae4323c8692,
	"site 8->8 16^3 (dec)":  0xbb6ec961c467c0a5,
	"volume 5x6x7":          0x14627665fd0871f1,
	"width 1":               0xf7ee7a43fe02be66,
	"width 2":               0xdffb39ed7a46efa9,
	"width 12":              0x2c7a6b54f5d1a7c5,
	"k5 on a width-1 row":   0x44ed24d6dca4c287,
	"k5 deep K":             0xf3c1227f3673b176,
	"k1":                    0x1f6e37ad67d8f2a2,
	"ic 1":                  0x36fa792092abd2a4,
	"ic 5 batch 3":          0x156261a324d96b8d,
	"ic 6 width 5":          0xb7d516ea1ab2633f,
}

var convGoldenCases = []struct {
	name         string
	inC, outC, k int
	n, d, h, w   int
}{
	{"site 4->8 16^3", 4, 8, 3, 2, 16, 16, 16},
	{"site 8->8 16^3", 8, 8, 3, 2, 16, 16, 16},
	{"site 8->16 8^3", 8, 16, 3, 2, 8, 8, 8},
	{"site 16->16 8^3", 16, 16, 3, 2, 8, 8, 8},
	{"site 16->32 4^3", 16, 32, 3, 2, 4, 4, 4},
	{"site 32->32 4^3", 32, 32, 3, 2, 4, 4, 4},
	{"site 48->16 8^3", 48, 16, 3, 2, 8, 8, 8},
	{"site 16->16 8^3 (dec)", 16, 16, 3, 2, 8, 8, 8},
	{"site 24->8 16^3", 24, 8, 3, 2, 16, 16, 16},
	{"site 8->8 16^3 (dec)", 8, 8, 3, 2, 16, 16, 16},
	{"volume 5x6x7", 3, 5, 3, 2, 5, 6, 7},
	{"width 1", 2, 3, 3, 1, 4, 5, 1},
	{"width 2", 3, 4, 3, 2, 3, 2, 2},
	// A multiple of 4 that does not divide the 16-column panel: panels
	// straddle row ends at 12, 8 and 4 columns in.
	{"width 12", 2, 4, 3, 1, 3, 5, 12},
	{"k5 on a width-1 row", 1, 2, 5, 1, 4, 4, 1},
	// IC·K³ = 500 > the 384-deep K slice: the second slice starts mid-tap.
	{"k5 deep K", 4, 2, 5, 1, 5, 5, 8},
	{"k1", 4, 3, 1, 2, 5, 3, 7},
	{"ic 1", 1, 4, 3, 2, 4, 4, 4},
	// Channel counts that leave 3 and 2 zero channels in a channels-last
	// group of four: a batch of 3 (a ragged sample group at 2 workers) and a
	// row 5 wide (the per-element forward).
	{"ic 5 batch 3", 5, 4, 3, 3, 4, 5, 8},
	{"ic 6 width 5", 6, 3, 3, 2, 4, 3, 5},
}

func fnvFloats(h uint64, vs []float32) uint64 {
	for _, v := range vs {
		bits := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(bits>>s&0xff)) * 1099511628211
		}
	}
	return h
}

func TestConvGoldenHash(t *testing.T) {
	print := os.Getenv("REPRO_GOLDEN_PRINT") != ""
	for i, tc := range convGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1400 + i)))
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)
			gradOut := randTensor(rng, tc.n, tc.outC, tc.d, tc.h, tc.w)

			var gradIn1 []float32
			for _, workers := range []int{1, 2, 4} {
				c := NewConv3D("c", tc.inC, tc.outC, tc.k, rand.New(rand.NewSource(int64(77+i))))
				c.SetWorkers(workers)
				out := c.Forward(x)
				gradIn := c.Backward(gradOut)
				inferred := c.Infer(x)
				assertBitEqual(t, "Infer vs Forward", workers, out.Data(), inferred.Data())

				h := fnvFloats(14695981039346656037, out.Data())
				h = fnvFloats(h, c.W.Grad.Data())
				h = fnvFloats(h, c.B.Grad.Data())
				if print {
					t.Logf("workers=%d golden %q: %#x", workers, tc.name, h)
				} else if want := convGolden[tc.name]; h != want {
					t.Errorf("workers=%d: forward + kernel-gradient hash %#x, want %#x (captured at the parent commit)", workers, h, want)
				}
				if workers == 1 {
					gradIn1 = gradIn.Data()
				} else {
					assertBitEqual(t, "input gradient vs workers=1", workers, gradIn1, gradIn.Data())
				}
			}
		})
	}
}

// convTransposeGolden pins what ConvTranspose3D produces — the forward
// output (Forward and Infer alike), the input gradient, the kernel gradient
// and the bias gradient, hashed together — as captured at commit c771b3c, the
// parent of the scattered-store rewrite, where the forward multiplied into a
// column buffer and scattered it, with REPRO_GOLDEN_PRINT=1. The first four
// cases are the benchmark network's two up sites at batch 2 and 4; the rest
// are the shapes that take the GEMM's Go store instead of the assembly's:
// a kernel of 3 (step 3), rows 5 and 1 wide (one start per column), one input
// channel. The last case writes into, and reads its gradient from, the first
// OC channels of a wider tensor.
var convTransposeGolden = map[string]uint64{
	"site 32->32 4^3":         0xbbfcacabdcc9a171,
	"site 32->32 4^3 batch 4": 0xbf766c456f8defcb,
	"site 16->16 8^3":         0xe020e09754411c1d,
	"site 16->16 8^3 batch 4": 0xb4c471388848c4e0,
	"k3":                      0xc0cb237bf6268f64,
	"width 5":                 0xdb7acbaee45cf34e,
	"width 1":                 0x2d9049bd05ccdcc9,
	"ic 1":                    0x6ea65e5845985b61,
	"window 4 of 9":           0xdc1e7b1ebf394fca,
}

var convTransposeGoldenCases = []struct {
	name         string
	inC, outC, k int
	n, d, h, w   int
	wide         int // window: the first outC channels of wide; 0 is no window
}{
	{"site 32->32 4^3", 32, 32, 2, 2, 4, 4, 4, 0},
	{"site 32->32 4^3 batch 4", 32, 32, 2, 4, 4, 4, 4, 0},
	{"site 16->16 8^3", 16, 16, 2, 2, 8, 8, 8, 0},
	{"site 16->16 8^3 batch 4", 16, 16, 2, 4, 8, 8, 8, 0},
	{"k3", 3, 2, 3, 2, 2, 3, 4, 0},
	{"width 5", 4, 3, 2, 2, 3, 2, 5, 0},
	{"width 1", 3, 5, 2, 2, 2, 3, 1, 0},
	{"ic 1", 1, 4, 2, 2, 4, 4, 4, 0},
	{"window 4 of 9", 8, 4, 2, 2, 4, 2, 8, 9},
}

func TestConvTransposeGoldenHash(t *testing.T) {
	print := os.Getenv("REPRO_GOLDEN_PRINT") != ""
	for i, tc := range convTransposeGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2900 + i)))
			k := tc.k
			x := randTensor(rng, tc.n, tc.inC, tc.d, tc.h, tc.w)
			gradOut := randTensor(rng, tc.n, tc.outC, tc.d*k, tc.h*k, tc.w*k)
			for _, workers := range []int{1, 2, 4} {
				c := NewConvTranspose3D("u", tc.inC, tc.outC, k, rand.New(rand.NewSource(int64(88+i))))
				c.SetWorkers(workers)
				out := c.Forward(x)
				gradIn := c.Backward(gradOut)
				inferred := c.Infer(x)
				assertBitEqual(t, "Infer vs Forward", workers, out.Data(), inferred.Data())
				if tc.wide > 0 {
					checkConvTransposeWindow(t, c, tc.wide, x, out, gradIn, gradOut)
				}

				h := fnvFloats(14695981039346656037, out.Data())
				h = fnvFloats(h, gradIn.Data())
				h = fnvFloats(h, c.W.Grad.Data())
				h = fnvFloats(h, c.B.Grad.Data())
				if print {
					t.Logf("workers=%d golden %q: %#x", workers, tc.name, h)
				} else if want := convTransposeGolden[tc.name]; h != want {
					t.Errorf("workers=%d: forward + gradients hash %#x, want %#x (captured at the parent commit)", workers, h, want)
				}
			}
		})
	}
}

// checkConvTransposeWindow runs c's windowed passes — the forward into the
// first OC channels of a wide tensor, the backward from the same channels of
// a wide gradient — and holds them to the plain passes' out, gradIn and
// parameter gradients bit for bit; every channel from OC on must keep the NaN
// it was filled with.
func checkConvTransposeWindow(t *testing.T, c *ConvTranspose3D, wide int, x, out, gradIn, gradOut *tensor.Tensor) {
	t.Helper()
	s := out.Shape()
	n, oc, vol := s[0], s[1], s[2]*s[3]*s[4]
	window := func(w *tensor.Tensor, ni int) []float32 { return w.Data()[ni*wide*vol:][:oc*vol] }
	nan := float32(math.NaN())
	dst := tensor.New(n, wide, s[2], s[3], s[4])
	dst.Fill(nan)
	for _, infer := range []bool{false, true} {
		if infer {
			dst.Fill(nan)
			c.InferInto(x, dst)
		} else {
			c.ForwardInto(x, dst)
		}
		for ni := 0; ni < n; ni++ {
			assertSameBits(t, "window forward", out.Data()[ni*oc*vol:][:oc*vol], window(dst, ni))
		}
		for i, v := range dst.Data() {
			if ch := i / vol % wide; ch >= oc && !math.IsNaN(float64(v)) {
				t.Fatalf("forward wrote %v to channel %d, past its %d", v, ch, oc)
			}
		}
	}

	// The parameter gradients hold one plain Backward's; the windowed one
	// must leave them as it finds them after a reset.
	wantW, wantB := c.W.Grad.Clone(), c.B.Grad.Clone()
	ZeroGrads(c.Params())
	g := tensor.New(n, wide, s[2], s[3], s[4])
	g.Fill(nan)
	for ni := 0; ni < n; ni++ {
		copy(window(g, ni), gradOut.Data()[ni*oc*vol:][:oc*vol])
	}
	assertSameBits(t, "window input gradient", gradIn.Data(), c.Backward(g).Data())
	assertSameBits(t, "window kernel gradient", wantW.Data(), c.W.Grad.Data())
	assertSameBits(t, "window bias gradient", wantB.Data(), c.B.Grad.Data())
}
