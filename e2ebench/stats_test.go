package main

import (
	"math"
	"testing"
	"time"
)

func TestSamplesForKeepsTenSamplesBeyond(t *testing.T) {
	for p, want := range map[float64]int{99: 1000, 95: 200, 90: 100, 50: 20, 99.9: 10000} {
		n := samplesFor(p)
		if n != want {
			t.Errorf("samplesFor(%g) = %d, want %d", p, n, want)
		}
		if beyond := n - rank(n, p); beyond < minBeyond {
			t.Errorf("p%g at %d samples leaves %d beyond", p, n, beyond)
		}
		if beyond := n - 1 - rank(n-1, p); beyond >= minBeyond {
			t.Errorf("p%g already leaves %d beyond at %d samples", p, beyond, n-1)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestQueryMedianOverDistinctQueries(t *testing.T) {
	var tl tally
	// Two fast and two slow queries, repeated: the plain median of all
	// samples is an edge sample of one query; queryMedian is the midpoint
	// between the second-fastest and second-slowest query's medians.
	for i := 0; i < 5; i++ {
		tl.record(1, time.Duration(1+i%2)*time.Millisecond, nil)
		tl.record(2, 2*time.Millisecond, nil)
		tl.record(3, 4*time.Millisecond, nil)
		tl.record(4, 8*time.Millisecond, nil)
	}
	if got := tl.queryMedian(); got != 3 {
		t.Errorf("queryMedian = %g, want 3", got)
	}
	var distinct tally
	for i, l := range []int{5, 1, 3} {
		distinct.record(uint64(i), time.Duration(l)*time.Millisecond, nil)
	}
	if got := distinct.queryMedian(); got != 3 {
		t.Errorf("queryMedian of distinct queries = %g, want the plain median 3", got)
	}
}
