package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// classedLayout is a run-4 gathered operand over one instance's source of
// srcLen floats together with classes for its column panels: the tables
// Gathered.Classed takes.
type classedLayout struct {
	rows, starts             []int
	panel, ends, keep, krows []int
	srcLen                   int
}

// operand returns the layout with its classes, or without them.
func (l *classedLayout) operand(classed bool) Gathered {
	g := NewGathered(l.rows, l.starts, 4)
	if classed {
		g = g.Classed(l.panel, l.ends, l.keep, l.krows)
	}
	return g
}

// classify gives each panel the class of its dead-step set, class 0 that
// of none, and lists each other class's kept steps.
func (l *classedLayout) classify(dead [][]bool) {
	k := len(l.rows)
	sets := [][]bool{make([]bool, k)}
	l.panel = make([]int, len(dead))
	for j, d := range dead {
		l.panel[j] = slices.IndexFunc(sets, func(s []bool) bool { return slices.Equal(s, d) })
		if l.panel[j] < 0 {
			l.panel[j] = len(sets)
			sets = append(sets, d)
		}
	}
	l.ends = []int{0}
	l.keep, l.krows = nil, nil
	for _, s := range sets[1:] {
		for p := range k {
			if !s[p] {
				l.keep = append(l.keep, p)
				l.krows = append(l.krows, l.rows[p])
			}
		}
		l.ends = append(l.ends, len(l.keep))
	}
}

// convLayout is the patch matrix of a same-padded 3³ convolution over ch
// channel volumes of d×h×w, w a multiple of 4, each inside a border one
// voxel wide, and its classes by brute force: a panel's class leaves out
// every (channel, tap) step that reads the border for each of its voxels.
func convLayout(ch, d, h, w int) classedLayout {
	hp, wp := h+2, w+2
	vol := (d + 2) * hp * wp
	l := classedLayout{srcLen: ch * vol}
	for c := range ch {
		for t := range 27 {
			l.rows = append(l.rows, c*vol+(t/9*hp+t/3%3)*wp+t%3)
		}
	}
	for z := range d {
		for y := range h {
			for x := 0; x < w; x += 4 {
				l.starts = append(l.starts, (z*hp+y)*wp+x)
			}
		}
	}
	n := d * h * w
	var dead [][]bool
	for v0 := 0; v0 < n; v0 += nr {
		set := make([]bool, len(l.rows))
		for p := range set {
			t := p % 27
			set[p] = true
			for v := v0; v < min(v0+nr, n); v++ {
				z, y, x := v/(h*w)+t/9-1, v/w%h+t/3%3-1, v%w+t%3-1
				if z >= 0 && z < d && y >= 0 && y < h && x >= 0 && x < w {
					set[p] = false
				}
			}
		}
		dead = append(dead, set)
	}
	l.classify(dead)
	return l
}

// convSource fills count instances of a convLayout's source: the interior
// random, with exact zeros of both signs among it, and the border ±0.
func convSource(rng *rand.Rand, count, ch, d, h, w int) []float32 {
	hp, wp := h+2, w+2
	vol := (d + 2) * hp * wp
	src := make([]float32, count*ch*vol)
	for i := range src {
		off := i % vol
		z, y, x := off/(hp*wp), off/wp%hp, off%wp
		switch {
		case z == 0 || z > d || y == 0 || y > h || x == 0 || x > w:
			if rng.Intn(2) == 0 {
				src[i] = float32(math.Copysign(0, -1))
			}
		case rng.Intn(10) == 0:
			src[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		default:
			src[i] = float32(rng.NormFloat64())
		}
	}
	return src
}

// randomLayout is a run-4 operand of k steps and nStarts column runs at
// random offsets, with random classes: each panel's class leaves out a
// random set of steps (one class leaves out all of them, and one every step
// past the first slice, so its later slices are empty), and every source
// element a left-out step reads for a live column of such a panel is made
// ±0 in each of count instances.
func randomLayout(rng *rand.Rand, src []float32, count, k, nStarts int) classedLayout {
	l := classedLayout{srcLen: len(src) / count}
	l.rows, l.starts = make([]int, k), make([]int, nStarts)
	for p := range l.rows {
		l.rows[p] = rng.Intn(l.srcLen - 2000)
	}
	for v := range l.starts {
		l.starts[v] = rng.Intn(2000 - 4)
	}
	shapes := make([][]bool, 4)
	for i := range shapes {
		shapes[i] = make([]bool, k)
		for p := range k {
			switch i {
			case 1:
				shapes[i][p] = rng.Intn(3) == 0
			case 2:
				shapes[i][p] = true
			case 3:
				shapes[i][p] = p >= kcBlock
			}
		}
	}
	panels := (4*nStarts + nr - 1) / nr
	dead := make([][]bool, panels)
	for j := range dead {
		dead[j] = shapes[rng.Intn(len(shapes))]
		for p, out := range dead[j] {
			if !out {
				continue
			}
			for _, s := range l.starts[j*nr/4 : min(nStarts, (j+1)*nr/4)] {
				for e := range 4 {
					for i := range count {
						src[i*l.srcLen+l.rows[p]+s+e] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
					}
				}
			}
		}
	}
	l.classify(dead)
	return l
}

// TestGemmGatherClassesMatchFull holds a product whose gathered operand
// carries classes — each class's panels multiplied by its kept K steps only
// — to the same product without them, bit for bit over the whole
// destination: a left-out step's B elements are ±0, and with A finite the
// rounding recurrence never sees them. Operands are the patch matrices of 3³
// convolutions (K = 108, 648, 1161, 1296 across the kcBlock slices; planes
// and rows of one voxel, rows that span a panel, and panels that span rows
// and planes; 1161's last slice holds only taps kz = 2, so the far z face's
// class has nothing there) and random layouts whose classes leave out
// random steps, every step, or every step past the first slice. Each runs
// at count 1–4, ragged N, dense and step-1 scattered targets, over C,
// accumulating, with a bias and with a bias and a normalization, at 1, 2 and
// 4 workers.
func TestGemmGatherClassesMatchFull(t *testing.T) {
	type operand struct {
		name  string
		count int
		l     classedLayout
		src   []float32
	}
	var ops []operand
	for _, sh := range []struct{ ch, d, h, w int }{
		{4, 3, 3, 16}, {4, 1, 1, 16}, {24, 2, 3, 8}, {43, 3, 4, 4}, {48, 1, 3, 12}, {48, 3, 1, 20},
	} {
		for count := 1; count <= 4; count++ {
			rng := rand.New(rand.NewSource(int64(sh.ch*100 + sh.d*10 + sh.h + count)))
			ops = append(ops, operand{fmt.Sprintf("conv_ch%d_%dx%dx%d_n%d", sh.ch, sh.d, sh.h, sh.w, count), count,
				convLayout(sh.ch, sh.d, sh.h, sh.w), convSource(rng, count, sh.ch, sh.d, sh.h, sh.w)})
		}
	}
	for _, sh := range []struct{ k, nStarts int }{{108, 9}, {648, 20}, {1296, 13}} {
		for count := 1; count <= 4; count++ {
			rng := rand.New(rand.NewSource(int64(sh.k + sh.nStarts + count)))
			src := randMat(rng, count*(2*sh.k+6000))
			ops = append(ops, operand{fmt.Sprintf("random_k%d_s%d_n%d", sh.k, sh.nStarts, count), count,
				randomLayout(rng, src, count, sh.k, sh.nStarts), src})
		}
	}
	for _, op := range ops {
		for _, scattered := range []bool{false, true} {
			for _, sk := range []string{"over", "accumulate", "bias", "biasnorm"} {
				t.Run(fmt.Sprintf("%s_scattered%v_%s", op.name, scattered, sk), func(t *testing.T) {
					k, n := len(op.l.rows), 4*len(op.l.starts)
					rng := rand.New(rand.NewSource(int64(k*31 + n)))
					m := 1 + rng.Intn(9)
					a := randMat(rng, m*k)
					var ep Epilogue
					if sk == "bias" || sk == "biasnorm" {
						ep.Bias = randSpecial(rng, m)
					}
					if sk == "biasnorm" {
						ep.Norm = testStats(rng, m)
					}
					var size int
					var target func(dst []float32) Target
					if scattered {
						rows, starts, span := scatterLayout(rng, m, n, 4, 1, false, false)
						s := NewScattered(rows, starts, 4, 1)
						size = span
						target = func(dst []float32) Target { return s.Into(dst, span) }
					} else {
						size = m*(n+3) + 5
						target = func(dst []float32) Target { return Into(dst, n+3, size) }
					}
					seed := randSpecial(rng, op.count*size)
					full := op.l.operand(false).Operand(op.src, op.l.srcLen)
					want := append([]float32(nil), seed...)
					GemmBatch(new(tensor.Workspace), op.count, false, m, n, k, a, k, 0, full, sk == "accumulate", ep, target(want), 1)
					classed := op.l.operand(true).Operand(op.src, op.l.srcLen)
					for _, workers := range []int{1, 2, 4} {
						got := append([]float32(nil), seed...)
						GemmBatch(new(tensor.Workspace), op.count, false, m, n, k, a, k, 0, classed, sk == "accumulate", ep, target(got), workers)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("m=%d workers=%d: element %d = %v (%#08x), without classes %v (%#08x)", m, workers, i,
									got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				})
			}
		}
	}
}

// TestGatherClassesRejectBadTables: the class tables are the caller's, and
// the assembly reads the kept steps' offsets unchecked, so tables that do
// not describe the operand panic in Classed.
func TestGatherClassesRejectBadTables(t *testing.T) {
	rows := []int{0, 10, 20, 30, 40}
	g := NewGathered(rows, []int{0, 4, 8, 12, 16}, 4) // 20 columns: two panels
	cases := []struct {
		name                     string
		panel, ends, keep, krows []int
	}{
		{"panels", []int{0}, []int{0, 1}, []int{1}, []int{10}},
		{"class", []int{0, 2}, []int{0, 1}, []int{1}, []int{10}},
		{"ends", []int{0, 1}, []int{0, 2}, []int{1}, []int{10}},
		{"order", []int{0, 1}, []int{0, 2}, []int{3, 1}, []int{30, 10}},
		{"range", []int{0, 1}, []int{0, 1}, []int{5}, []int{50}},
		{"offset", []int{0, 1}, []int{0, 1}, []int{1}, []int{11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Classed accepted tables that do not describe the operand")
				}
			}()
			g.Classed(tc.panel, tc.ends, tc.keep, tc.krows)
		})
	}
}
