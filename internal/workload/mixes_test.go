package workload

import (
	"math"
	"sort"
	"strings"
	"testing"

	"csds/internal/core"
	"csds/internal/xrand"
)

// TestNamedMixChiSquare runs the 8-way goodness-of-fit test over every
// catalog mix, with the expected fractions hand-derived from each mix's
// published definition (not recomputed from the Config, so threshold
// arithmetic bugs can't cancel out).
func TestNamedMixChiSquare(t *testing.T) {
	const draws = 200000
	// Indexed by Op: get, put, remove, scan, cursor, mget, mput, mremove.
	want := map[string][8]float64{
		"paper":   {0.8, 0.1, 0.1, 0, 0, 0, 0, 0},
		"ycsb-a":  {0.5, 0.25, 0.25, 0, 0, 0, 0, 0},
		"ycsb-b":  {0.95, 0.025, 0.025, 0, 0, 0, 0, 0},
		"ycsb-c":  {1, 0, 0, 0, 0, 0, 0, 0},
		"ycsb-d":  {0.95, 0.025, 0.025, 0, 0, 0, 0, 0},
		"ycsb-e":  {0, 0.025, 0.025, 0.95, 0, 0, 0, 0},
		"ycsb-f":  {2.0 / 3, 1.0 / 6, 1.0 / 6, 0, 0, 0, 0, 0},
		"flash":   {0.9, 0.05, 0.05, 0, 0, 0, 0, 0},
		"diurnal": {0.9, 0.05, 0.05, 0, 0, 0, 0, 0},
		"drift":   {0.9, 0.05, 0.05, 0, 0, 0, 0, 0},
	}
	for i, m := range Mixes() {
		t.Run(m.Name, func(t *testing.T) {
			exp, ok := want[m.Name]
			if !ok {
				t.Fatalf("mix %q has no expected fractions: extend this test with the new catalog entry", m.Name)
			}
			cfg := m.Cfg
			cfg.Size = 1024
			g := NewGenerator(cfg)
			if chi2 := chiSquareMix(t, g, uint64(2000+i), draws, exp); chi2 > chi2Crit7 {
				t.Fatalf("chi-square %.2f exceeds %.2f: drawn mix inconsistent with %v", chi2, chi2Crit7, exp)
			}
		})
	}
}

func TestMixCatalogSane(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, m := range Mixes() {
		if m.Name == "" || m.Desc == "" {
			t.Fatalf("catalog entry %+v missing name or description", m)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate mix name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Cfg.Size != 0 || m.Cfg.KeySpace != 0 {
			t.Fatalf("mix %q pins a size: sizes belong to the caller", m.Name)
		}
		if strings.ContainsAny(m.Name, ",:= ") {
			t.Fatalf("mix name %q collides with the spec grammar or a composite -alg", m.Name)
		}
	}
	for _, required := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f", "flash", "diurnal", "drift", "paper"} {
		if !seen[required] {
			t.Fatalf("catalog missing required mix %q", required)
		}
	}
}

func TestParseMix(t *testing.T) {
	cfg, err := ParseMix("ycsb-b")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UpdateRatio != 0.05 || cfg.ZipfS != 0.99 || cfg.Mix != "ycsb-b" {
		t.Fatalf("ycsb-b parsed wrong: %+v", cfg)
	}

	cfg, err = ParseMix("ycsb-b:updates=0.2:drift-period=0.5:scan-len=100")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UpdateRatio != 0.2 || cfg.DriftPeriod != 0.5 || cfg.ScanLen != 100 || cfg.ZipfS != 0.99 {
		t.Fatalf("modifiers not applied: %+v", cfg)
	}

	for _, bad := range []string{
		"",                      // empty name
		"ycsb-z",                // unknown mix
		"ycsb-a:bogus=1",        // unknown modifier
		"ycsb-a:updates",        // no '='
		"ycsb-a:updates=heavy",  // not a number
		"ycsb-a:updates=1.5",    // fraction out of range
		"ycsb-a:updates=-0.1",   // negative fraction
		"ycsb-a:scan-len=0",     // non-positive length
		"ycsb-a:zipf=NaN",       // NaN exponent
		"ycsb-a:think-ns=-5",    // negative duration
		"flash:flash-duty=2",    // duty out of range
		"drift:drift-period=-1", // negative period
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}

	// Error hints name the vocabulary so operators can self-serve.
	if _, err := ParseMix("nope"); err == nil || !strings.Contains(err.Error(), "ycsb-a") {
		t.Fatalf("unknown-mix error lacks catalog hint: %v", err)
	}
	if _, err := ParseMix("paper:nope=1"); err == nil || !strings.Contains(err.Error(), "drift-period") {
		t.Fatalf("unknown-modifier error lacks key hint: %v", err)
	}
}

// TestKeyAtStaticEquivalence pins the no-dynamics contract: KeyAt consumes
// exactly the RNG stream Key does, so switching the harness to the phased
// form changes nothing for static workloads (including every baseline
// bench cell).
func TestKeyAtStaticEquivalence(t *testing.T) {
	for _, s := range []float64{0, 0.99} {
		g := NewGenerator(Config{Size: 1024, ZipfS: s})
		a, b := xrand.New(42), xrand.New(42)
		for i := 0; i < 20000; i++ {
			phase := float64(i%97) / 97
			if k1, k2 := g.Key(a), g.KeyAt(b, phase); k1 != k2 {
				t.Fatalf("draw %d (s=%v): Key %d != KeyAt %d", i, s, k1, k2)
			}
		}
	}
}

// TestFlashCrowdConcentrates checks the duty-cycle windows: inside a
// flash, ~FlashBoost of draws land in the hot set; outside, the static
// distribution is untouched.
func TestFlashCrowdConcentrates(t *testing.T) {
	g := NewGenerator(Config{
		Size: 4096, FlashPeriod: 0.5, FlashDuty: 0.5, FlashFrac: 1.0 / 64, FlashBoost: 0.9,
	})
	hotN := core.Key(8192 / 64) // uniform base: hot set = lowest keys
	frac := func(phase float64, seed uint64) float64 {
		rng := xrand.New(seed)
		hot := 0
		const draws = 100000
		for i := 0; i < draws; i++ {
			if g.KeyAt(rng, phase) <= hotN {
				hot++
			}
		}
		return float64(hot) / draws
	}
	// Phase 0.1 → cycle position 0.2 < duty 0.5: active. Expect
	// 0.9 + 0.1/64 ≈ 0.902 of draws in the hot 1/64th.
	if f := frac(0.1, 21); math.Abs(f-0.9016) > 0.01 {
		t.Fatalf("flash window hot fraction %.4f, want ~0.90", f)
	}
	// Phase 0.3 → cycle position 0.6: idle. Expect the uniform 1/64.
	if f := frac(0.3, 22); math.Abs(f-1.0/64) > 0.005 {
		t.Fatalf("idle hot fraction %.4f, want ~%.4f", f, 1.0/64)
	}
	if !g.Dynamic() {
		t.Fatal("flash config not Dynamic")
	}
}

// TestDriftRotatesWorkingSet checks that the hottest key at phase 0.5 is
// the phase-0 hottest key rotated half way around the key space.
func TestDriftRotatesWorkingSet(t *testing.T) {
	g := NewGenerator(Config{Size: 2048, ZipfS: 0.99, DriftPeriod: 1})
	const ks = 4096
	top := func(phase float64, seed uint64) core.Key {
		rng := xrand.New(seed)
		counts := map[core.Key]int{}
		for i := 0; i < 200000; i++ {
			counts[g.KeyAt(rng, phase)]++
		}
		var best core.Key
		max := 0
		for k, c := range counts {
			if c > max {
				best, max = k, c
			}
		}
		return best
	}
	t0, t5 := top(0, 31), top(0.5, 31)
	wantT5 := core.Key((int64(t0)-1+ks/2)%ks) + 1
	if t5 != wantT5 {
		t.Fatalf("phase-0.5 hottest key %d, want %d (phase-0 hottest %d rotated by %d)", t5, wantT5, t0, ks/2)
	}
	if !g.Dynamic() {
		t.Fatal("drift config not Dynamic")
	}
}

func TestThinkNsCurve(t *testing.T) {
	g := NewGenerator(Config{Size: 128, ThinkNs: 1000})
	if got := g.ThinkNsAt(0); got != 0 {
		t.Fatalf("think time at phase 0 = %d, want 0", got)
	}
	if got := g.ThinkNsAt(0.5); got != 1000 {
		t.Fatalf("think time at phase 0.5 = %d, want the full 1000", got)
	}
	if a, b := g.ThinkNsAt(0.1), g.ThinkNsAt(0.4); a >= b {
		t.Fatalf("curve not rising toward midday: ThinkNsAt(0.1)=%d >= ThinkNsAt(0.4)=%d", a, b)
	}
	if a, b := g.ThinkNsAt(0.25), g.ThinkNsAt(0.75); a-b > 1 || b-a > 1 {
		t.Fatalf("curve not symmetric: %d vs %d", a, b)
	}
	if !g.Dynamic() {
		t.Fatal("diurnal config not Dynamic")
	}
	if NewGenerator(Config{Size: 128, ZipfS: 0.99}).Dynamic() {
		t.Fatal("static config claims Dynamic")
	}
}

func TestDynamicsDefaults(t *testing.T) {
	c := Config{Size: 128, FlashPeriod: 0.25}.WithDefaults()
	if c.FlashDuty != 0.5 || c.FlashFrac != 1.0/64 || c.FlashBoost != 0.9 {
		t.Fatalf("flash defaults not filled: %+v", c)
	}
	// Without a period, stray flash fields are cleared.
	c2 := Config{Size: 128, FlashDuty: 0.3, FlashBoost: 0.5}.WithDefaults()
	if c2.FlashDuty != 0 || c2.FlashBoost != 0 {
		t.Fatalf("flash fields not cleared without a period: %+v", c2)
	}
	c3 := Config{Size: 128, DriftPeriod: -3, ThinkNs: -1, FlashPeriod: math.NaN()}.WithDefaults()
	if c3.DriftPeriod != 0 || c3.ThinkNs != 0 || c3.FlashPeriod != 0 {
		t.Fatalf("negative/NaN dynamics not zeroed: %+v", c3)
	}
}

// FuzzWorkloadSpec fuzzes the workload-spec parser: it must never panic,
// and every accepted spec must yield a config the generator can run —
// normalized fractions summing within bounds and in-range key draws.
func FuzzWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		"ycsb-a",
		"ycsb-b:updates=0.2",
		"ycsb-e:scan-len=100:scan-frac=0.5",
		"flash:flash-boost=0.5:flash-duty=0.25:flash-frac=0.01",
		"drift:drift-period=0.125",
		"diurnal:think-ns=1000",
		"paper:zipf=0.8:batch-frac=0.3:batch-len=32",
		"ycsb-d:cursor-frac=0.1:page-len=8",
		"nope", "ycsb-a:", "ycsb-a:updates=", "a:b=c:d=e", ":::", "paper:updates=1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseMix(spec)
		if err != nil {
			return
		}
		if cfg.Mix != spec {
			t.Fatalf("accepted spec %q but Mix field is %q", spec, cfg.Mix)
		}
		cfg.Size = 64
		n := cfg.WithDefaults()
		if sum := n.CursorRatio + n.ScanRatio + n.BatchRatio + n.UpdateRatio; sum > 1+1e-9 {
			t.Fatalf("normalized fractions sum to %v: %+v", sum, n)
		}
		g := NewGenerator(cfg)
		rng := xrand.New(99)
		for i := 0; i < 64; i++ {
			phase := float64(i) / 64
			if k := g.KeyAt(rng, phase); k < 1 || k > core.Key(g.Config().KeySpace) {
				t.Fatalf("spec %q drew key %d outside [1, %d] at phase %v", spec, k, g.Config().KeySpace, phase)
			}
			if tn := g.ThinkNsAt(phase); tn < 0 || tn > g.Config().ThinkNs {
				t.Fatalf("spec %q think time %d outside [0, %d]", spec, tn, g.Config().ThinkNs)
			}
			g.NextOp(rng)
		}
	})
}
