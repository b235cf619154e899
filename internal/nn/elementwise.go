package nn

import "math"

// Element-wise arithmetic of batch normalization and ReLU, shared by the
// standalone BatchNorm / ReLU layers and the fused ConvBNReLU block's
// training passes, so the chain and the block agree bit for bit by
// construction.
//
// The scalar helpers below define the arithmetic. The standalone layers call
// them element by element. The block's passes — normRelu, gatedInputGrad,
// the gated addGradSums (batchnorm.go) and the channels-last interleave
// (conv3d_gemm.go) — run their leading whole blocks through AVX2 assembly
// (elementwise_amd64.s) when gemm's AVX2 paths are live, and the tail
// (length mod 4) through the Go loop; normRelu and gatedInputGrad write a
// plane with a border row by row (rowWalk), all of it in AVX2 where rows are
// a multiple of 4 wide. Without AVX2, and off amd64, the Go loops run
// alone. They are the oracle, as gemm's kernelGo is for its assembly:
// TestElementwiseAsmMatchesGo holds each routine to its loop bit for bit,
// and the GOARCH=386 CI run holds the Go side to the goldens.
//
// Every operation is rounded where it is written. A product that is then
// added or subtracted is wrapped in an explicit conversion — float64(a*b) +
// c — because the Go spec lets a compiler fuse a*b + c into one FMA (arm64
// does) unless a conversion rounds the product first; the assembly keeps
// every VMULPD and VADDPD separate for the same reason. The block's Infer
// does not call these: the GEMM's store computes the same formula
// (gemm.Norm) in vector registers, and TestBlockMatchesChain holds the two
// to the same bits, GOAMD64=v3 and 386 included.

// gate returns g where y > 0 and +0 everywhere else (y NaN, ±0 or
// negative). It is a select, not a branch: the sign of an activation is a
// coin toss the branch predictor loses half the time.
func gate(y, g float32) float32 {
	var keep uint32
	if y > 0 {
		keep = ^uint32(0)
	}
	return math.Float32frombits(math.Float32bits(g) & keep)
}

// relu is max(0, v) with NaN and −0 mapped to +0.
func relu(v float32) float32 { return gate(v, v) }

// bnNormalize is one element of x̂ = (x − mean)·rstd, computed in float64 and
// rounded once.
func bnNormalize(v float32, mean, rstd float64) float32 {
	return float32((float64(v) - mean) * rstd)
}

// bnAffine is one element of γ·x̂ + β, the product rounded before the sum.
func bnAffine(gamma, xhat, beta float32) float32 { return float32(gamma*xhat) + beta }

// bnReduce adds one element to a channel's two backward reductions, Σdy and
// Σdy·x̂.
func bnReduce(sumDy, sumDyXhat, dy float64, xhat float32) (float64, float64) {
	return sumDy + dy, sumDyXhat + float64(dy*float64(xhat))
}

// bnInputGrad is one element of the batch-norm input gradient,
// k·(m·dy − Σdy − x̂·Σdy·x̂) with k = γ·rstd/m.
func bnInputGrad(k, m, dy, sumDy float64, xhat float32, sumDyXhat float64) float32 {
	return float32(k * (float64(m*dy) - sumDy - float64(float64(xhat)*sumDyXhat)))
}

// laneAffine is the normalization's γ and β of the four channels a pass
// steps together, lane j for channel lanes[j]: the assembly's layout
// (elementwise_amd64.s).
type laneAffine struct {
	gamma, beta [4]float32
}

// gateAffine is gate on the ReLU's output rebuilt from x̂: relu(γ·x̂ + β) > 0
// exactly where γ·x̂ + β > 0, so the block's backward passes read x̂ and the
// gradient, both plain, and not the output, which lies inside a border or
// in a channel window of a wider buffer.
func gateAffine(gamma, xhat, beta, g float32) float32 { return gate(bnAffine(gamma, xhat, beta), g) }

// rowWalk is where a plane of a haloGeom lies, in the assembly's terms:
// slabs of rows rows of quads·4 floats, the next row rowGap bytes past the
// end of one, the next slab slabGap bytes past the end of its last row. A
// plain plane is one row.
type rowWalk struct {
	quads, rows, slabs int
	rowGap, slabGap    int
}

// walk returns the walk of the voxels of a plane of geometry g that the
// assembly does, and how many voxels that is: a plain plane's leading
// multiple of 4; a bordered plane's every row when rows are a multiple of 4
// wide, else none.
func (g haloGeom) walk() (rowWalk, int) {
	if g.p == 0 {
		n := g.d * g.h * g.w &^ 3
		return rowWalk{quads: n / 4, rows: 1, slabs: 1}, n
	}
	if g.w%4 != 0 {
		return rowWalk{}, 0
	}
	return rowWalk{quads: g.w / 4, rows: g.h, slabs: g.d, rowGap: 4 * (g.wp - g.w), slabGap: 4 * (g.hp - g.h) * g.wp},
		g.d * g.h * g.w
}

// extent is how many floats a plane of geometry g spans from its first
// interior voxel to its last, inclusive.
func (g haloGeom) extent() int { return ((g.d-1)*g.hp+g.h-1)*g.wp + g.w }

// forRuns calls fn(i, o, n) for each run of n voxels of a plane of geometry
// g that the assembly left, done voxels done (g.walk): i is the run's offset
// in a plain plane, o in g's from the first interior voxel. A plain plane's
// rest is one run; a bordered plane's rows are done all or none.
func (g haloGeom) forRuns(done int, fn func(i, o, n int)) {
	if g.p == 0 {
		if n := g.d*g.h*g.w - done; n > 0 {
			fn(done, done, n)
		}
		return
	}
	if done > 0 {
		return
	}
	for r := 0; r < g.d*g.h; r++ {
		fn(r*g.w, (r/g.h*g.hp+r%g.h)*g.wp, g.w)
	}
}

// argPool is the geometry of a 2×2×2 pooling with argmax, in the
// assembly's terms (elementwise_amd64.s): the row stride and plane stride
// of the input's buffer, the row strides of the output's buffer and of the
// argmax record, two rows of the plain input, the pooled rows, each row's
// blocks of eight voxels, each window element's offset from its corner in
// the plain input, in visiting order, and whether each row ends in four
// voxels more.
type argPool struct {
	wp, plane, owp, aw, w2 int
	oh, blocks             int
	taps                   [8]int32
	half                   int
}

// normRelu is the block's forward pass over one channel plane: z, a plain
// plane, is overwritten with x̂ and y[i] = relu(γ·x̂[i] + β) goes into a plane
// of geometry g, y from its first interior voxel.
func normRelu(z, y []float32, g haloGeom, mean, rstd float64, gamma, beta float32) {
	done := normReluVec(z, y, g, mean, rstd, gamma, beta)
	g.forRuns(done, func(i, o, n int) { normReluGo(z[i:i+n], y[o:o+n], mean, rstd, gamma, beta) })
}

func normReluGo(z, y []float32, mean, rstd float64, gamma, beta float32) {
	y = y[:len(z)]
	for i, v := range z {
		xh := bnNormalize(v, mean, rstd)
		z[i] = xh
		y[i] = relu(bnAffine(gamma, xh, beta))
	}
}

// gatedInputGrad is the block's input-gradient pass over one channel plane:
// g, a plain plane, is overwritten with the batch-norm input gradient of g
// gated by the ReLU's output, which relu(γ·h + β) rebuilds from x̂ = h, and
// the same values go into a plane of geometry og, out from its first
// interior voxel.
func gatedInputGrad(g, h, out []float32, og haloGeom, k, m, sumDy, sumDyXhat float64, gamma, beta float32) {
	done := gatedInputGradVec(g, h, out, og, k, m, sumDy, sumDyXhat, gamma, beta)
	og.forRuns(done, func(i, o, n int) {
		gatedInputGradGo(g[i:i+n], h[i:i+n], out[o:o+n], k, m, sumDy, sumDyXhat, gamma, beta)
	})
}

func gatedInputGradGo(g, h, out []float32, k, m, sumDy, sumDyXhat float64, gamma, beta float32) {
	h, out = h[:len(g)], out[:len(g)]
	for i, v := range g {
		d := bnInputGrad(k, m, float64(gateAffine(gamma, h[i], beta, v)), sumDy, h[i], sumDyXhat)
		g[i] = d
		out[i] = d
	}
}
