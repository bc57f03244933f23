package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// samplesFor returns the fewest samples for which the percentile p < 100
// keeps at least minBeyond samples strictly above its nearest-rank
// position. Workloads run at least this many queries, so their tail
// percentile is the same on any host.
func samplesFor(p float64) int {
	n := 1
	for n-rank(n, p) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples: the smallest r with r >= p/100*n, allowing for the rounding of
// p/100*n in floating point.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted, or NaN when
// sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns values sorted ascending, leaving values untouched.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the median of values, averaging the two middle ones when
// their number is even.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak tracks the largest live Go heap seen at the phase boundaries
// where it is marked.
type heapPeak struct{ bytes uint64 }

// mark collects garbage and records the live heap: what set-up, lazily
// built indexes, caches and retained traces hold at that point. A forced
// collection makes the figure independent of when the collector last ran.
func (h *heapPeak) mark() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h.bytes = max(h.bytes, m.HeapAlloc)
}

// mb returns the peak in MiB.
func (h *heapPeak) mb() float64 { return float64(h.bytes) / (1 << 20) }
