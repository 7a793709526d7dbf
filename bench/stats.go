package main

import (
	"math"
	"math/bits"
	"sort"

	"github.com/fluentps/fluentps/internal/mathx"
)

// hist is a fixed-size log-linear latency histogram: 32 sub-buckets per
// power of two (≈3 % wide), values below 32 ns exact. Step and pull
// latencies go here instead of into a sample array so that the
// benchmark's own bookkeeping stays a few KiB and does not drown the
// program's heap in heap_peak_mb.
type hist struct {
	n   uint64
	sum uint64
	b   [histBuckets]uint32
}

const (
	histSub     = 32
	histSubBits = 5
	histBuckets = (64 - histSubBits + 1) * histSub
)

func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	return (e-histSubBits+1)*histSub + int(uint64(ns)>>(e-histSubBits))&(histSub-1)
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	w := uint64(1) << (e - histSubBits)
	return float64((histSub + uint64(i%histSub)) * w), float64(w)
}

func (h *hist) add(ns int64) {
	h.n++
	if ns > 0 {
		h.sum += uint64(ns)
	}
	h.b[bucketOf(ns)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile in ns, interpolated by rank inside the
// bucket it falls in; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// tailSupported is the percentile rule: a quantile is reported as resolved
// only when at least ten samples lie beyond it.
func tailSupported(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 100 × (1 − 0.9) is 9.999…98 in float64
}

// highestPercentile returns the highest of p50/p90/p99/p99.9 that n
// samples resolve under tailSupported (0 when not even the median does).
func highestPercentile(n uint64) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if tailSupported(n, q) {
			best = q
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mathx.Quantile(s, 0.5)
}

// iqr is the distance between the first and third quartile, computed as
// Python's statistics.quantiles(xs, n=4) does (the driver's spread rule).
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(3) - cut(1)
}

// spread is iqr as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(iqr(xs) / m)
}

// selfNs is a probe's self time: what it measured minus the nested probes
// it contains (tcp − frame, frame − encode − decode), never below zero.
func selfNs(total float64, nested ...float64) float64 {
	for _, n := range nested {
		total -= n
	}
	return max(total, 0)
}
