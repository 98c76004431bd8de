package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistQuantileWithinTwoPercent(t *testing.T) {
	// Log-uniform from 10 ns to ~10 s: every octave the histogram has.
	r := newRng(1, 0)
	var h hist
	xs := make([]float64, 200000)
	for i := range xs {
		v := math.Floor(10 * math.Pow(10, 9*r.float()))
		xs[i] = v
		h.record(int64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := xs[int(q*float64(len(xs)))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.3f = %.0f, exact %.0f: off by more than 2 %%", q, got, want)
		}
	}
}

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		b := histBucket(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("value %d lands in bucket %d, outside [0, %d)", v, b, histBuckets)
		}
		if mid := histValue(b); math.Abs(mid-float64(v)) > float64(v)/64+0.5 {
			t.Errorf("value %d reads back as %.1f", v, mid)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both hist
	for v := int64(1); v <= 1000; v++ {
		both.record(v * 100)
		if v%2 == 0 {
			a.record(v * 100)
		} else {
			b.record(v * 100)
		}
	}
	a.merge(&b)
	if a != both {
		t.Fatal("merging two halves differs from recording the whole")
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram's median is %v, want 0", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
