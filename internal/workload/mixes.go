// Named production-shaped workload mixes and the spec mini-grammar that
// selects them (`csdsbench -workload`).
//
// The YCSB core workloads (Cooper et al., SoCC'10) map onto this
// generator's vocabulary as follows. YCSB updates are key overwrites; our
// updates are an insert/remove pair at equal rates (the paper's §3.3
// stationarity trick), so an "x% update" YCSB mix becomes UpdateRatio x
// here. YCSB-D's "read latest" popularity has no stationary analogue in a
// fixed key space, so it is approximated by working-set drift: the Zipf
// head moves continuously through the key space and the freshest keys are
// the hottest. YCSB-F's read-modify-write is decomposed into its two
// primitive halves (a read plus a write), so the 50/50 read/RMW mix
// becomes 2/3 reads + 1/3 writes. YCSB-E's 95% short scans map onto
// ScanRatio with the standard mean length of 50.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Mix is a catalog entry: a named base Config (sizes left to the caller)
// plus a one-line description used by -list and the docs tables.
type Mix struct {
	Name string
	Desc string
	Cfg  Config
}

// mixes is the catalog. Sizes (Size/KeySpace) are zero: the caller's
// -size governs; everything else is the mix's identity.
var mixes = []Mix{
	{"paper", "the paper's §3.3 mix: 20% updates (half inserts, half removes), uniform keys",
		Config{UpdateRatio: 0.2}},
	{"ycsb-a", "update heavy: 50% reads / 50% updates, Zipf 0.99 (session stores)",
		Config{UpdateRatio: 0.5, ZipfS: 0.99}},
	{"ycsb-b", "read mostly: 95% reads / 5% updates, Zipf 0.99 (photo tagging)",
		Config{UpdateRatio: 0.05, ZipfS: 0.99}},
	{"ycsb-c", "read only, Zipf 0.99 (user-profile caches)",
		Config{UpdateRatio: 0, ZipfS: 0.99}},
	{"ycsb-d", "read latest: 95% reads / 5% updates with the working set drifting once across the key space (news feeds)",
		Config{UpdateRatio: 0.05, ZipfS: 0.99, DriftPeriod: 1}},
	{"ycsb-e", "short ranges: 95% scans (mean length 50) / 5% updates, Zipf 0.99 (threaded conversations)",
		Config{UpdateRatio: 0.05, ScanRatio: 0.95, ScanLen: 50, ZipfS: 0.99}},
	{"ycsb-f", "read-modify-write decomposed into primitive halves: 2/3 reads + 1/3 writes, Zipf 0.99 (user records)",
		Config{UpdateRatio: 1.0 / 3, ZipfS: 0.99}},
	{"flash", "hot-key flash crowds: Zipf 0.8 base with 90% of draws collapsing onto 1/64 of the key space during 40% of each quarter-run cycle (breaking news)",
		Config{UpdateRatio: 0.1, ZipfS: 0.8, FlashPeriod: 0.25, FlashDuty: 0.4, FlashFrac: 1.0 / 64, FlashBoost: 0.9}},
	{"diurnal", "diurnal ramp: Zipf 0.8, 10% updates, think time on a raised-cosine day curve peaking at 200µs mid-run (overnight trough)",
		Config{UpdateRatio: 0.1, ZipfS: 0.8, ThinkNs: 200_000}},
	{"drift", "working-set drift: Zipf 0.99, 10% updates, popularity rotating through the key space four times per run (trending topics)",
		Config{UpdateRatio: 0.1, ZipfS: 0.99, DriftPeriod: 0.25}},
}

// Mixes returns the catalog sorted by name.
func Mixes() []Mix {
	out := append([]Mix(nil), mixes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the catalog's mix names, sorted.
func Names() []string {
	names := make([]string, 0, len(mixes))
	for _, m := range mixes {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// modSetters maps workload-spec modifier keys to field setters. Fractions
// are validated to [0, 1]; lengths and durations must be positive. The
// keys deliberately mirror the csdsbench flag names where one exists.
var modSetters = map[string]func(c *Config, v string) error{
	"updates":      fracSetter(func(c *Config, f float64) { c.UpdateRatio = f }),
	"zipf":         nonNegSetter(func(c *Config, f float64) { c.ZipfS = f }),
	"scan-frac":    fracSetter(func(c *Config, f float64) { c.ScanRatio = f }),
	"cursor-frac":  fracSetter(func(c *Config, f float64) { c.CursorRatio = f }),
	"batch-frac":   fracSetter(func(c *Config, f float64) { c.BatchRatio = f }),
	"scan-len":     lenSetter(func(c *Config, n int64) { c.ScanLen = n }),
	"page-len":     lenSetter(func(c *Config, n int64) { c.PageLen = n }),
	"batch-len":    lenSetter(func(c *Config, n int64) { c.BatchLen = n }),
	"flash-period": fracSetter(func(c *Config, f float64) { c.FlashPeriod = f }),
	"flash-duty":   fracSetter(func(c *Config, f float64) { c.FlashDuty = f }),
	"flash-frac":   fracSetter(func(c *Config, f float64) { c.FlashFrac = f }),
	"flash-boost":  fracSetter(func(c *Config, f float64) { c.FlashBoost = f }),
	"drift-period": fracSetter(func(c *Config, f float64) { c.DriftPeriod = f }),
	"think-ns":     lenSetter(func(c *Config, n int64) { c.ThinkNs = n }),
}

func fracSetter(set func(*Config, float64)) func(*Config, string) error {
	return func(c *Config, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 || f != f {
			return fmt.Errorf("want a fraction in [0, 1], got %q", v)
		}
		set(c, f)
		return nil
	}
}

func nonNegSetter(set func(*Config, float64)) func(*Config, string) error {
	return func(c *Config, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 64 || f != f {
			return fmt.Errorf("want a number in [0, 64], got %q", v)
		}
		set(c, f)
		return nil
	}
}

func lenSetter(set func(*Config, int64)) func(*Config, string) error {
	return func(c *Config, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 || n > 1<<40 {
			return fmt.Errorf("want a positive integer, got %q", v)
		}
		set(c, n)
		return nil
	}
}

// modKeys returns the modifier-key vocabulary, sorted (for error hints).
func modKeys() []string {
	keys := make([]string, 0, len(modSetters))
	for k := range modSetters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParseMix parses a workload spec:
//
//	spec := name ( ':' key '=' value )*
//
// name selects a catalog mix and each key=value modifier overrides one
// field — e.g. "ycsb-b:updates=0.1:drift-period=0.5". The separator is
// ':' (never ','), so a spec never collides with the commas of a
// composite algorithm spec beside it. The returned Config carries the
// base mix with modifiers applied, sizes unset (callers supply Size),
// and Mix set to the normalized spec.
func ParseMix(spec string) (Config, error) {
	parts := strings.Split(spec, ":")
	name := parts[0]
	var cfg Config
	found := false
	for _, m := range mixes {
		if m.Name == name {
			cfg, found = m.Cfg, true
			break
		}
	}
	if !found {
		return Config{}, fmt.Errorf("unknown workload mix %q (have %s)", name, strings.Join(Names(), ", "))
	}
	for _, mod := range parts[1:] {
		k, v, ok := strings.Cut(mod, "=")
		if !ok || k == "" {
			return Config{}, fmt.Errorf("bad workload modifier %q: want key=value", mod)
		}
		set, ok := modSetters[k]
		if !ok {
			return Config{}, fmt.Errorf("unknown workload modifier %q (have %s)", k, strings.Join(modKeys(), ", "))
		}
		if err := set(&cfg, v); err != nil {
			return Config{}, fmt.Errorf("workload modifier %s: %v", k, err)
		}
	}
	cfg.Mix = spec
	return cfg, nil
}
