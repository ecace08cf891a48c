package main

import (
	"math"
	"math/bits"
)

// latHist is a fixed-size log-linear histogram of nanosecond durations: 64
// sub-buckets per power of two (about 1.6% relative resolution). Recording
// never allocates, so timing the program does not move its allocation
// count. Quantiles interpolate by rank inside a bucket; stats.Histogram
// answers with bucket bounds in 2% steps, so its quantiles jump between
// fixed values and repeat exactly across runs.
type latHist struct {
	counts [64 * 64]uint64
	n      uint64
}

const subBits = 6

func (h *latHist) record(ns int64) {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	e := bits.Len64(v) - 1
	var sub uint64
	if e >= subBits {
		sub = (v >> (e - subBits)) & 63
	} else {
		sub = (v << (subBits - e)) & 63
	}
	h.counts[e*64+int(sub)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// bucketRange returns the [lo, lo+width) value range of bucket i.
func bucketRange(i int) (lo, width float64) {
	e, sub := i/64, i%64
	base := float64(uint64(64+sub)) / 64
	scale := float64(uint64(1) << e)
	return base * scale, scale / 64
}

// quantile returns the q-quantile in nanoseconds (NaN when empty, so an
// empty sub-window never reads as a fast one).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// quantileUS returns the q-quantile in microseconds.
func (h *latHist) quantileUS(q float64) float64 { return h.quantile(q) / 1e3 }
