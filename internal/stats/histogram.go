package stats

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with exponentially growing
// upper bounds, safe for concurrent use. Observations land in the first
// bucket whose upper bound is >= the value (Prometheus "le" semantics);
// values above the last bound land in the implicit +Inf bucket.
//
// The bucket layout is fixed at construction and never reallocated, so
// Observe performs two atomic adds and no allocation — cheap enough for
// per-operation latencies on the hot path.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. The +Inf bucket is implicit.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// LatencyBounds are the default bucket upper bounds for operation
// latencies, in nanoseconds: 250ns doubling to ~4ms, which brackets
// everything from a buffer-cache hit to a durable fsync.
func LatencyBounds() []int64 {
	bounds := make([]int64, 15)
	b := int64(250)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// BatchBounds are the bucket upper bounds for group-commit batch sizes:
// 1, 2, 4, ... 256 commits per durable sync.
func BatchBounds() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// Observe records one value. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry
	// for the +Inf bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the current bucket counts. Safe on a nil histogram
// (returns a zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket. The +Inf bucket reports
// the last finite bound. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(s.Bounds) {
				return float64(s.Bounds[len(s.Bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			}
			hi := float64(s.Bounds[i])
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Mean returns the average observed value, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// P50 and P99 are the quantiles the benchmark harness reports.
func (s HistogramSnapshot) P50() float64 { return s.Quantile(0.50) }

// P99 estimates the 99th percentile.
func (s HistogramSnapshot) P99() float64 { return s.Quantile(0.99) }

// round1 rounds to one decimal for display.
func round1(v float64) float64 { return math.Round(v*10) / 10 }
