// Package load holds what the benchmark's clients need and the program
// under test must not supply: seeded keys, values and op streams, the
// shadow state answers are checked against, and a latency histogram
// that does not saturate.
package load

import "math/bits"

// Hist is a log-linear histogram of nanosecond values: exact below
// 2048 ns, then 1024 buckets per power of two, so any quantile is within
// 0.1% of a recorded value (three significant digits) up to MaxNs. It
// replaces stats.LatencyBounds, whose top finite bucket is 4.096 ms.
// A Hist belongs to one goroutine; Merge combines them afterwards.
type Hist struct {
	counts [nBuckets]uint32
	n      uint64
}

const (
	subBits  = 10
	maxShift = 23 // values up to (2047 << 23) ns, about 17 s
	nBuckets = (maxShift + 2) << subBits
	// MaxNs is the largest value recorded without clamping.
	MaxNs = (1<<(subBits+1) - 1) << maxShift
)

func bucketOf(v uint64) int {
	if v < 1<<(subBits+1) {
		return int(v)
	}
	if v > MaxNs {
		v = MaxNs
	}
	shift := bits.Len64(v) - (subBits + 1)
	return (shift+1)<<subBits | int(v>>shift)&(1<<subBits-1)
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 1<<(subBits+1) {
		return float64(i)
	}
	shift := i>>subBits - 1
	lo := uint64(1<<subBits|i&(1<<subBits-1)) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

// Record adds one value; negative values count as zero.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// Count is the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds o's values to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the value at rank q (0..1) in nanoseconds, 0 when
// empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(nBuckets - 1)
}
