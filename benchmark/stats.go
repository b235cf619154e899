package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 1): the smallest
// sample with at least p·n samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailLadder is the percentiles a timing may be reported at, highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// supportedTail returns the highest ladder percentile with at least ten of n
// samples beyond it, or 0 when even the median has fewer: a percentile with
// a handful of samples past it is an anecdote, not a measurement.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p
		}
	}
	return 0
}

// sampleNote renders a sample count with the percentile it supports, for the
// notes every run prints next to its timings.
func sampleNote(n int, what string) string {
	if p := supportedTail(n); p > 0 {
		return fmt.Sprintf("%d %s (supports p%.0f)", n, what, 100*p)
	}
	return fmt.Sprintf("%d %s (too few for a percentile)", n, what)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// printed here are the ones the driver computes. Needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeMs runs fn once untimed, then reps times, and returns the median
// duration in milliseconds.
func timeMs(reps int, fn func()) float64 {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = ms(time.Since(t0))
	}
	return median(ds)
}
