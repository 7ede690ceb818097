package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 needs at least 100 samples, a median at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. It refuses to
// report a percentile with fewer than minBeyond samples above it, so
// a tail figure is never read off a handful of points.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the plain median (mean of the middle pair for even n);
// it is used for small per-round and per-call series where the
// percentile rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio divides, reading 0/0 as 0 for layers a workload never uses.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
