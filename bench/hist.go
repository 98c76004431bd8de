package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 64 are exact, every octave above is cut into 32 equal sub-buckets, so a
// reported quantile (bucket midpoint) is within 1/64 ≈ 1.6 % of the true
// value. stats.Hist's log2 buckets are 2× coarse — two runs of the same
// code could not agree to within a tenth on them. A hist has one writer
// (its worker); hists merge after the window.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	histLinear  = 2 * histSub      // values below this are exact
	histBuckets = histLinear + (64-histSubBits-1)*histSub
)

func histBucket(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits+1
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return histLinear + (exp-histSubBits-1)*histSub + sub
}

// histValue is the midpoint of bucket b (the value itself when exact).
func histValue(b int) float64 {
	if b < histLinear {
		return float64(b)
	}
	b -= histLinear
	exp := uint(b/histSub + histSubBits + 1)
	sub := uint64(b % histSub)
	lo := uint64(1)<<exp | sub<<(exp-histSubBits)
	width := uint64(1) << (exp - histSubBits)
	return float64(lo) + float64(width)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in ns (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histValue(b)
		}
	}
	return histValue(histBuckets - 1)
}

// tailQuantile picks the highest of p99, p90 and p50 that still has at
// least ten samples beyond it: a percentile resting on fewer is one
// sample's accident, not a property of the distribution.
func tailQuantile(n uint64) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if beyond := float64(n) - math.Ceil(q*float64(n)-1e-9); beyond >= 10 {
			return q
		}
	}
	return 0.5
}
