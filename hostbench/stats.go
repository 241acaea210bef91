package main

import "sort"

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to count as measured rather than as one outlier.
const minBeyond = 10

// tail is a reported high percentile: Value at percentile Pct of N
// samples.
type tail struct {
	Value float64
	Pct   float64
	N     int
}

// tailPercentile reports p99 by the nearest-rank rule when at least
// minBeyond samples lie above it. Otherwise it reports the highest
// percentile that still has minBeyond samples above it, as long as that
// lies above the median. A sample too small for that (21 values or
// fewer) supports no tail at all, and the median is reported (Pct 50):
// its maximum would be one unsupported outlier.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	i := (99*n+99)/100 - 1 // nearest-rank p99: ceil(0.99 n), 0-based
	if beyond := n - 1 - i; beyond < minBeyond {
		i = n - 1 - minBeyond
	}
	if i <= (n-1)/2 {
		return tail{Value: median(xs), Pct: 50, N: n}
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n}
}
