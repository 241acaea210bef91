package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must sort
	}
	return xs
}

func TestTailPercentileKeepsP99WithEnoughSamplesBeyond(t *testing.T) {
	// 2000 samples: nearest-rank p99 is the 1980th value, with 20 above.
	got := tailPercentile(seq(2000))
	if got.Value != 1980 || got.Pct != 99 || got.N != 2000 {
		t.Fatalf("tailPercentile(1..2000) = %+v, want p99 = 1980", got)
	}
}

func TestTailPercentileFallsBackToTenBeyond(t *testing.T) {
	// 500 samples: p99 (the 495th) has only 5 above it, so the rule
	// reports the 490th value, the highest with 10 above: p98.
	got := tailPercentile(seq(500))
	if got.Value != 490 || got.Pct != 98 {
		t.Fatalf("tailPercentile(1..500) = %+v, want 490 at p98", got)
	}
	// Exactly 1000 samples: p99 is the 990th value with 10 above.
	if got := tailPercentile(seq(1000)); got.Value != 990 || got.Pct != 99 {
		t.Fatalf("tailPercentile(1..1000) = %+v, want 990 at p99", got)
	}
}

func TestTailPercentileFewSamplesReportsMedian(t *testing.T) {
	// Up to 21 samples, the value with 10 above it is at or below the
	// median: no tail is supported, and the median is reported.
	for _, n := range []int{1, 5, 10, 11, 21} {
		want := median(seq(n))
		if got := tailPercentile(seq(n)); got.Value != want || got.Pct != 50 || got.N != n {
			t.Fatalf("tailPercentile(1..%d) = %+v, want the median %v at p50", n, got, want)
		}
	}
	// 30 samples: the 20th value has 10 above it and lies above the median.
	if got := tailPercentile(seq(30)); got.Value != 20 || got.N != 30 {
		t.Fatalf("tailPercentile(1..30) = %+v, want 20", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
}
