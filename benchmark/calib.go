package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on is a shared 2-core VM whose speed moves by
// half over minutes (neighbours on the host): the same train step reads
// 160 ms in one run and 250 ms twenty minutes later, which no median inside a
// 20 s run can average out. So every reported time is *calibrated*: the
// workload interleaves its repetitions with a fixed reference kernel, and a
// time is multiplied by nominal / measured kernel time of the moment. A box
// that is 40 % slower for a while then reports the same number; a change
// that makes the repository's code 10 % slower still reports 10 % more,
// because the kernel is this file's own code and no change to the
// repository can speed it up.
//
// The kernel is shaped like the code the repository spends its time in: a
// 4×4 register-tiled float32 multiply over packed panels streaming through a
// buffer larger than L2, its chunks claimed from a shared counter by two
// goroutines — as parallel.For does — so that when one core is slowed the
// reading moves with the machine's throughput, like the workloads', and not
// with its slowest core. Measured against 400 s of train steps while the box
// drifted by 55 %, the calibrated step time moved by 4 % (cv over 20 s
// windows; 12 % uncalibrated).

const (
	calK, calN   = 216, 512 // one chunk: [16 × 216] · [216 × 512]
	calChunks    = 48
	calWorkers   = 2
	calNominalMs = 27.0 // the kernel on the 2-core reference container in a quiet spell
)

var calBufs = func() (bufs [calWorkers]struct{ a, b, c []float32 }) {
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(i%7) * 0.125
		}
		return s
	}
	for g := range bufs {
		bufs[g].a, bufs[g].b, bufs[g].c = fill(16*calK), fill(calK*calN*8), make([]float32, 16*calN)
	}
	return bufs
}()

// calChunk computes C[16×calN] = A[16×calK] · B[calK×calN] from panels packed
// four wide, one 4×4 tile of C at a time.
func calChunk(a, b, c []float32) {
	for jp := 0; jp < calN/4; jp++ {
		bp := b[jp*calK*4 : (jp+1)*calK*4]
		for ip := 0; ip < 4; ip++ {
			ap := a[ip*calK*4 : (ip+1)*calK*4]
			var c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 float32
			for p := 0; p < calK; p++ {
				a0, a1, a2, a3 := ap[4*p], ap[4*p+1], ap[4*p+2], ap[4*p+3]
				b0, b1, b2, b3 := bp[4*p], bp[4*p+1], bp[4*p+2], bp[4*p+3]
				c00 += a0 * b0
				c01 += a0 * b1
				c02 += a0 * b2
				c03 += a0 * b3
				c10 += a1 * b0
				c11 += a1 * b1
				c12 += a1 * b2
				c13 += a1 * b3
				c20 += a2 * b0
				c21 += a2 * b1
				c22 += a2 * b2
				c23 += a2 * b3
				c30 += a3 * b0
				c31 += a3 * b1
				c32 += a3 * b2
				c33 += a3 * b3
			}
			o := c[(ip*(calN/4)+jp)*16:]
			o[0], o[1], o[2], o[3] = c00, c01, c02, c03
			o[4], o[5], o[6], o[7] = c10, c11, c12, c13
			o[8], o[9], o[10], o[11] = c20, c21, c22, c23
			o[12], o[13], o[14], o[15] = c30, c31, c32, c33
		}
	}
}

// calKernel runs the reference kernel once and returns its wall-clock in ms.
func calKernel() float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < calWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= calChunks {
					return
				}
				// Chunks walk an 8-chunk window of B (3.5 MB): past L2, as
				// an im2col patch matrix is.
				off := (i % 8) * calK * calN
				calChunk(calBufs[g].a, calBufs[g].b[off:off+calK*calN], calBufs[g].c)
			}
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// speedMeter turns bracketing readings of the box's speed into the factor
// that converts a segment's wall-clock into calibrated time. A reading is
// the median of `runs` kernel runs: three (≈0.1 s) between segments of a
// second or two, nine around a campaign of several seconds, whose own time
// averages over the box's fast jitter so that the reading must too.
type speedMeter struct {
	runs    int       // kernel runs per reading
	prev    float64   // kernel ms at the end of the previous segment
	factors []float64 // every factor handed out, for the run's notes
}

func (m *speedMeter) read() float64 {
	runs := make([]float64, m.runs)
	for i := range runs {
		runs[i] = calKernel()
	}
	return median(runs)
}

// start reads the speed before the first segment.
func (m *speedMeter) start() { m.prev = m.read() }

// segment reads the speed at the end of a segment and returns nominal over
// the mean of the readings on either side of it.
func (m *speedMeter) segment() float64 {
	now := m.read()
	f := calNominalMs / ((m.prev + now) / 2)
	m.prev = now
	m.factors = append(m.factors, f)
	return f
}

func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}
