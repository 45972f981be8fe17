package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram: 128 linear
// sub-buckets per power of two, so a recorded value is off by at most
// 1/128 (0.8%) whatever its magnitude. Latency samples land here
// instead of in one float per op, which keeps a 40 M-op run's memory
// flat and makes merging per-worker histograms a vector add.
type hist struct {
	counts [histBuckets]uint32 // a bucket of one window never holds 2^32 samples
	n      uint64
	sum    float64
}

const (
	histSubBits = 7 // 128 sub-buckets per octave
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // 2^42 ns ≈ 73 min; larger values clamp
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a nanosecond value to its bucket. Values below 128 ns
// get one bucket each; above that the top 7 bits after the leading one
// select the sub-bucket.
func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(uint64(ns)>>(uint(exp)-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub + histSubBits - 1
	sub := b % histSub
	width := math.Ldexp(1, exp-histSubBits)
	lo = math.Ldexp(1, exp) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// subtract removes an earlier snapshot of the same histogram, leaving
// what was recorded since.
func (h *hist) subtract(earlier *hist) {
	for i, c := range earlier.counts {
		h.counts[i] -= c
	}
	h.n -= earlier.n
	h.sum -= earlier.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds the rank. An empty histogram
// reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// median of a small sample (set-up times, repeated runs); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method): the
// acceptance rule for this benchmark is stated in those terms, so
// -compare computes its spreads the same way. Fewer than two values
// have no spread; both quartiles then read as the single value.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	const n = 4
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}
