package main

import (
	"math"
	"testing"
)

func loadHash(seed uint64) uint64 {
	rings := inprocRange.rings(seed, 2)
	load := wireOpen.generate(seed, 2, 300e6)
	return streamHash(append(rings, load.rings...), load.dues)
}

func TestSameSeedSameLoad(t *testing.T) {
	if a, b := loadHash(7), loadHash(7); a != b {
		t.Fatalf("seed 7 generated two different loads: %016x vs %016x", a, b)
	}
	if a, b := loadHash(7), loadHash(8); a == b {
		t.Fatalf("seeds 7 and 8 generated the same load %016x", a)
	}
	a, b := prefillKeys(7), prefillKeys(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prefill differs at %d for the same seed", i)
		}
	}
}

func TestPrefillIsHalfTheKeySpaceWithoutRepeats(t *testing.T) {
	keys := prefillKeys(3)
	if len(keys) != prefillN {
		t.Fatalf("prefill has %d keys, want %d", len(keys), prefillN)
	}
	seen := make(map[int64]bool, len(keys))
	for _, k := range keys {
		if k < 0 || k >= keySpace || seen[k] {
			t.Fatalf("key %d out of range or repeated", k)
		}
		seen[k] = true
	}
}

// chiSquare99 bounds a chi-square statistic at p = 0.01 for up to seven
// degrees of freedom (index = degrees of freedom).
var chiSquare99 = []float64{0, 6.63, 9.21, 11.34, 13.28, 15.09, 16.81, 18.48}

func TestMixFractions(t *testing.T) {
	for name, m := range map[string]*mix{"point": &pointMix, "range": &rangeMix, "open": &openMix, "pipe": &pipeMix} {
		const n = 1 << 18
		var got [numOpKinds]float64
		for _, o := range genOps(newRng(11, 0), n, m, nil) {
			got[o.kind()]++
		}
		chi, kinds := 0.0, 0
		for k, f := range m {
			if f == 0 {
				if got[k] != 0 {
					t.Errorf("%s: drew %v ops of kind %d, which the mix excludes", name, got[k], k)
				}
				continue
			}
			kinds++
			want := f * n
			chi += (got[k] - want) * (got[k] - want) / want
		}
		if limit := chiSquare99[kinds-1]; chi > limit {
			t.Errorf("%s: chi-square %.2f over %d kinds exceeds %.2f: observed %v", name, chi, kinds, limit, got)
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z := newZipf(zipfTheta)
	r := newRng(5, 0)
	const n = 1 << 18
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		k := z.key(r)
		if k < 0 || k >= keySpace {
			t.Fatalf("key %d outside the key space", k)
		}
		counts[k]++
	}
	// Rank 1 carries 1/H(N, 0.99) ≈ 8 % of a Zipf(0.99) over 2^17 keys.
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if share := float64(top) / n; share < 0.06 || share > 0.10 {
		t.Errorf("hottest key drew %.3f of the load, want about 0.08", share)
	}
}

func TestScheduleRate(t *testing.T) {
	const rate, n = 5000.0, 1 << 16
	due := genSchedule(newRng(9, 0), n, rate)
	for i := 1; i < n; i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	got := n / (float64(due[n-1]) / 1e9)
	if math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("schedule rate %.0f/s, want %.0f/s within 2 %%", got, rate)
	}
}
