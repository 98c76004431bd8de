// Package workload generates the paper's benchmark workloads (§3.3): a
// given structure size, a key space twice that size (so equal insert and
// remove rates keep the size stationary), an update ratio split evenly
// between inserts and removes, and uniform or Zipfian key popularity
// (§5.2 uses s = 0.8).
//
// Beyond the paper's point-op mixes, a workload can dedicate a fraction
// of operations to range scans (ScanRatio), with a configurable
// scan-length distribution — the scan-heavy scenarios (ranked feeds,
// prefix queries, windowed aggregation) the Scanner extension serves.
package workload

import (
	"math"

	"csds/internal/core"
	"csds/internal/xrand"
)

// Op is an operation kind drawn from the mix.
type Op int

// Operation kinds.
const (
	OpGet Op = iota
	OpPut
	OpRemove
	OpScan
	// OpCursorScan is a paginated range scan: the window is drawn like a
	// one-shot scan's, then iterated page by page through a resumable
	// cursor with page sizes drawn from the page-size distribution.
	OpCursorScan
	// OpMultiGet is a batched lookup: BatchLen keys drawn from the key
	// popularity distribution, applied through one Batcher.MultiGet.
	OpMultiGet
	// OpMultiPut is a batched insert (Batcher.MultiPut).
	OpMultiPut
	// OpMultiRemove is a batched remove (Batcher.MultiRemove).
	OpMultiRemove
)

// Scan-length distributions.
const (
	// ScanLenUniform draws lengths uniformly from [1, 2*ScanLen-1]
	// (mean ScanLen). The default.
	ScanLenUniform = "uniform"
	// ScanLenFixed uses exactly ScanLen every time.
	ScanLenFixed = "fixed"
	// ScanLenGeometric draws geometrically with mean ScanLen (long tail:
	// mostly short scans, occasional span-sized ones).
	ScanLenGeometric = "geometric"
)

// Config describes a workload.
type Config struct {
	// Size is the steady-state structure size (elements).
	Size int
	// KeySpace is the number of distinct keys; 0 = 2*Size (the paper's
	// setting).
	KeySpace int64
	// UpdateRatio is the fraction of operations that are updates (half
	// inserts, half removes).
	UpdateRatio float64
	// ZipfS > 0 selects a Zipfian popularity with that exponent; 0 keeps
	// the uniform distribution.
	ZipfS float64

	// ScanRatio is the fraction of operations that are range scans.
	// The fractions are absolute — ScanRatio scans, UpdateRatio updates,
	// the remainder gets — so adding scans never skews the Put/Remove
	// split. ScanRatio + UpdateRatio must not exceed 1 (WithDefaults
	// clamps UpdateRatio down, scans win ties).
	ScanRatio float64
	// ScanLen is the mean scan length in keys of the key space; 0
	// defaults to 64 (a feed-page worth of keys).
	ScanLen int64
	// ScanLenDist selects the scan-length distribution: ScanLenUniform
	// (default), ScanLenFixed or ScanLenGeometric.
	ScanLenDist string

	// CursorRatio is the fraction of operations that are paginated
	// (cursor) scans. Like ScanRatio the fraction is absolute; cursors
	// win ties over scans, scans over updates (WithDefaults clamps).
	CursorRatio float64
	// PageLen is the mean page size (keys delivered per cursor batch);
	// 0 defaults to 16 (a screenful of a feed page).
	PageLen int64
	// PageLenDist selects the page-size distribution: the same choices
	// as ScanLenDist (uniform default, fixed, geometric).
	PageLenDist string

	// BatchRatio is the fraction of operations that are batched
	// (Batcher) operations. Like the scan fractions it is absolute, and
	// the batch segment is itself split by UpdateRatio — a BatchRatio
	// batch mix has the same read/insert/remove proportions as the
	// point mix, so batching never skews the update rate. Ties clamp in
	// the order cursors > scans > batches > point updates.
	BatchRatio float64
	// BatchLen is the mean batch length in keys; 0 defaults to 64.
	BatchLen int64
	// BatchLenDist selects the batch-length distribution: the same
	// choices as ScanLenDist (uniform default, fixed, geometric).
	BatchLenDist string

	// --- Dynamics: phase-based traffic shaping. A phase is the elapsed
	// fraction of the measurement window in [0, 1); the harness samples
	// it coarsely (every ~64 ops) so the hot loop stays clock-free, and
	// passes it to KeyAt / ScanRangeAt / ThinkNsAt. With none of these
	// fields set the At methods are bit-identical to the static draws.

	// FlashPeriod > 0 enables hot-key flash crowds: the run divides into
	// cycles of FlashPeriod phase each, and during the first FlashDuty
	// of every cycle a FlashBoost fraction of key draws is redirected
	// into a hot set of FlashFrac*KeySpace keys (the hottest ranks under
	// Zipf, the lowest keys under uniform).
	FlashPeriod float64
	// FlashDuty is the active fraction of each flash cycle; 0 defaults
	// to 0.5 when FlashPeriod is set.
	FlashDuty float64
	// FlashFrac sizes the hot set as a fraction of the key space; 0
	// defaults to 1/64 when FlashPeriod is set.
	FlashFrac float64
	// FlashBoost is the fraction of draws redirected into the hot set
	// while a flash is active; 0 defaults to 0.9 when FlashPeriod is set.
	FlashBoost float64

	// DriftPeriod > 0 enables working-set drift: the popularity-to-key
	// mapping rotates through the whole key space once per DriftPeriod
	// of the run, so the hot working set moves continuously (the
	// read-latest pattern of YCSB-D, approximated in a closed loop).
	DriftPeriod float64

	// ThinkNs > 0 enables a diurnal ramp: each operation is followed by
	// a think time on a raised-cosine day curve — zero at phase 0,
	// peaking at ThinkNs at phase 0.5 — the closed-loop equivalent of an
	// offered-load trough in the middle of the window.
	ThinkNs int64

	// Mix names the catalog mix this config was derived from (set by
	// ParseMix, informational). Empty for hand-assembled configs.
	Mix string
}

// WithDefaults fills derived fields.
func (c Config) WithDefaults() Config {
	if c.Size <= 0 {
		c.Size = 1024
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 2 * int64(c.Size)
	}
	if c.CursorRatio < 0 {
		c.CursorRatio = 0
	}
	if c.CursorRatio > 1 {
		c.CursorRatio = 1
	}
	if c.ScanRatio < 0 {
		c.ScanRatio = 0
	}
	if c.ScanRatio > 1 {
		c.ScanRatio = 1
	}
	if c.CursorRatio+c.ScanRatio > 1 {
		c.ScanRatio = 1 - c.CursorRatio
	}
	if c.BatchRatio < 0 {
		c.BatchRatio = 0
	}
	if c.BatchRatio > 1 {
		c.BatchRatio = 1
	}
	if c.CursorRatio+c.ScanRatio+c.BatchRatio > 1 {
		c.BatchRatio = 1 - c.CursorRatio - c.ScanRatio
	}
	if c.UpdateRatio < 0 {
		c.UpdateRatio = 0
	}
	if c.UpdateRatio > 1 {
		c.UpdateRatio = 1
	}
	if c.CursorRatio+c.ScanRatio+c.BatchRatio+c.UpdateRatio > 1 {
		c.UpdateRatio = 1 - c.CursorRatio - c.ScanRatio - c.BatchRatio
	}
	if c.ScanLen <= 0 {
		c.ScanLen = 64
	}
	if c.ScanLen > c.KeySpace {
		c.ScanLen = c.KeySpace
	}
	if c.ScanLenDist == "" {
		c.ScanLenDist = ScanLenUniform
	}
	if c.PageLen <= 0 {
		c.PageLen = 16
	}
	if c.PageLenDist == "" {
		c.PageLenDist = ScanLenUniform
	}
	if c.BatchLen <= 0 {
		c.BatchLen = 64
	}
	if c.BatchLenDist == "" {
		c.BatchLenDist = ScanLenUniform
	}
	if c.FlashPeriod < 0 || math.IsNaN(c.FlashPeriod) || math.IsInf(c.FlashPeriod, 0) {
		c.FlashPeriod = 0
	}
	if c.FlashPeriod > 1 {
		c.FlashPeriod = 1
	}
	if c.FlashPeriod > 0 {
		if c.FlashDuty <= 0 || c.FlashDuty > 1 || math.IsNaN(c.FlashDuty) {
			c.FlashDuty = 0.5
		}
		if c.FlashFrac <= 0 || c.FlashFrac > 1 || math.IsNaN(c.FlashFrac) {
			c.FlashFrac = 1.0 / 64
		}
		if c.FlashBoost <= 0 || c.FlashBoost > 1 || math.IsNaN(c.FlashBoost) {
			c.FlashBoost = 0.9
		}
	} else {
		c.FlashDuty, c.FlashFrac, c.FlashBoost = 0, 0, 0
	}
	if c.DriftPeriod < 0 || math.IsNaN(c.DriftPeriod) || math.IsInf(c.DriftPeriod, 0) {
		c.DriftPeriod = 0
	}
	if c.DriftPeriod > 1 {
		c.DriftPeriod = 1
	}
	if c.ThinkNs < 0 {
		c.ThinkNs = 0
	}
	return c
}

// Generator draws operations for one workload. The Zipf table and rank
// permutation are immutable and shared; each worker samples with its own
// RNG.
type Generator struct {
	cfg  Config
	zipf *xrand.Zipf
	perm []int64 // rank -> key (decorrelates popularity from key order)

	// Cumulative op-mix thresholds over one uniform draw in [0, 1):
	// [0, pCursor) cursor scan, [pCursor, pScan) scan, [pScan,
	// pBatchPut) batched put, [pBatchPut, pBatchRemove) batched remove,
	// [pBatchRemove, pBatch) batched get, [pBatch, pPut) put, [pPut,
	// pRemove) remove, and [pRemove, 1) get. A single draw against
	// precomputed boundaries keeps every category's probability exactly
	// its configured fraction — stacking conditional coin flips (the
	// old two-way update split) is where mix skew creeps in when
	// categories are added. The batch segment is split by UpdateRatio
	// exactly like the point segment, so batch traffic mirrors the
	// point mix's read/write proportions.
	pCursor, pScan, pBatchPut, pBatchRemove, pBatch, pPut, pRemove float64

	// hotN is the hot-set size in keys when flash crowds are configured
	// (FlashFrac * KeySpace, at least 1); 0 otherwise.
	hotN int64
}

// NewGenerator prepares the (possibly shared) sampling tables.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.WithDefaults()
	g := &Generator{cfg: cfg}
	g.pCursor = cfg.CursorRatio
	g.pScan = g.pCursor + cfg.ScanRatio
	g.pBatchPut = g.pScan + cfg.BatchRatio*cfg.UpdateRatio/2
	g.pBatchRemove = g.pScan + cfg.BatchRatio*cfg.UpdateRatio
	g.pBatch = g.pScan + cfg.BatchRatio
	g.pPut = g.pBatch + cfg.UpdateRatio/2
	g.pRemove = g.pBatch + cfg.UpdateRatio
	if cfg.ZipfS > 0 {
		g.zipf = xrand.NewZipf(cfg.KeySpace, cfg.ZipfS)
		g.perm = xrand.Perm(cfg.KeySpace, xrand.New(0xC0FFEE))
	}
	if cfg.FlashPeriod > 0 {
		g.hotN = int64(cfg.FlashFrac * float64(cfg.KeySpace))
		if g.hotN < 1 {
			g.hotN = 1
		}
		if g.hotN > cfg.KeySpace {
			g.hotN = cfg.KeySpace
		}
	}
	return g
}

// Config returns the normalized configuration.
func (g *Generator) Config() Config { return g.cfg }

// Key draws a key according to the popularity distribution. Keys start at
// 1 so the sentinel KeyMin is never produced.
func (g *Generator) Key(rng *xrand.Rng) core.Key {
	if g.zipf == nil {
		return core.Key(1 + rng.Int63n(g.cfg.KeySpace))
	}
	return core.Key(1 + g.perm[g.zipf.Rank(rng)])
}

// Dynamic reports whether any phase-dependent dynamics (flash crowds,
// drift, diurnal think time) are configured. Callers that hold phase at 0
// when this is false never pay a clock read: KeyAt(rng, 0) is then
// bit-identical to Key(rng).
func (g *Generator) Dynamic() bool {
	return g.cfg.FlashPeriod > 0 || g.cfg.DriftPeriod > 0 || g.cfg.ThinkNs > 0
}

// flashActive reports whether the given phase falls inside a flash
// window: the first FlashDuty of each FlashPeriod-long cycle.
func (g *Generator) flashActive(phase float64) bool {
	if g.cfg.FlashPeriod <= 0 {
		return false
	}
	pos := phase / g.cfg.FlashPeriod
	return pos-math.Floor(pos) < g.cfg.FlashDuty
}

// keyIndex draws a zero-based key-space index from the static popularity
// distribution.
func (g *Generator) keyIndex(rng *xrand.Rng) int64 {
	if g.zipf == nil {
		return rng.Int63n(g.cfg.KeySpace)
	}
	return g.perm[g.zipf.Rank(rng)]
}

// KeyAt draws a key at the given run phase in [0, 1): the static
// popularity draw, redirected into the hot set during flash windows and
// rotated through the key space under drift. With no dynamics configured
// it consumes exactly the same RNG stream as Key, so static workloads are
// unchanged by callers switching to the phased form.
func (g *Generator) KeyAt(rng *xrand.Rng, phase float64) core.Key {
	var idx int64
	if g.flashActive(phase) && rng.Float64() < g.cfg.FlashBoost {
		// Hot-set draw: the hottest hotN ranks under Zipf (their keys are
		// scattered by the rank permutation, like a real flash crowd's),
		// the lowest hotN indices under uniform.
		if g.zipf != nil {
			idx = g.perm[rng.Int63n(g.hotN)]
		} else {
			idx = rng.Int63n(g.hotN)
		}
	} else {
		idx = g.keyIndex(rng)
	}
	if g.cfg.DriftPeriod > 0 {
		// Rotate the popularity→key mapping once around the key space per
		// DriftPeriod of the run: the hot working set moves continuously.
		off := int64(phase / g.cfg.DriftPeriod * float64(g.cfg.KeySpace))
		idx = (idx + off) % g.cfg.KeySpace
		if idx < 0 {
			idx += g.cfg.KeySpace
		}
	}
	return core.Key(1 + idx)
}

// ThinkNsAt returns the post-op think time at the given phase: a
// raised-cosine day curve peaking at ThinkNs mid-window. 0 when no
// diurnal ramp is configured.
func (g *Generator) ThinkNsAt(phase float64) int64 {
	if g.cfg.ThinkNs <= 0 {
		return 0
	}
	return int64(float64(g.cfg.ThinkNs) * (1 - math.Cos(2*math.Pi*phase)) / 2)
}

// NextOp draws the operation kind: one uniform variate against the
// cumulative mix thresholds (see the Generator field comment).
func (g *Generator) NextOp(rng *xrand.Rng) Op {
	u := rng.Float64()
	switch {
	case u < g.pCursor:
		return OpCursorScan
	case u < g.pScan:
		return OpScan
	case u < g.pBatchPut:
		return OpMultiPut
	case u < g.pBatchRemove:
		return OpMultiRemove
	case u < g.pBatch:
		return OpMultiGet
	case u < g.pPut:
		return OpPut
	case u < g.pRemove:
		return OpRemove
	default:
		return OpGet
	}
}

// BatchLen draws a batch length (keys per Multi* call) from the
// configured batch-length distribution; always >= 1.
func (g *Generator) BatchLen(rng *xrand.Rng) int64 {
	return drawLen(rng, g.cfg.BatchLen, g.cfg.BatchLenDist)
}

// ScanLen draws a scan length (keys of the key space spanned) from the
// configured distribution; always >= 1.
func (g *Generator) ScanLen(rng *xrand.Rng) int64 {
	return drawLen(rng, g.cfg.ScanLen, g.cfg.ScanLenDist)
}

// PageLen draws a cursor page size (keys delivered per Next batch) from
// the configured page-size distribution; always >= 1.
func (g *Generator) PageLen(rng *xrand.Rng) int64 {
	return drawLen(rng, g.cfg.PageLen, g.cfg.PageLenDist)
}

// drawLen draws from one of the shared length distributions with the
// given mean; always >= 1.
func drawLen(rng *xrand.Rng, mean int64, dist string) int64 {
	switch dist {
	case ScanLenFixed:
		if mean < 1 {
			return 1
		}
		return mean
	case ScanLenGeometric:
		if mean <= 1 {
			return 1
		}
		// Inverse-CDF geometric with success probability 1/mean.
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		n := int64(math.Log(u)/math.Log(1-1/float64(mean))) + 1
		if n < 1 {
			n = 1
		}
		return n
	default: // ScanLenUniform
		if mean <= 1 {
			return 1
		}
		return 1 + rng.Int63n(2*mean-1) // uniform on [1, 2*mean-1], mean = mean
	}
}

// ScanRange draws one scan window [lo, hi): the start follows the key
// popularity distribution (so skewed workloads scan hot regions more,
// like real feed reads) and the width follows the scan-length
// distribution. The window is a key-space interval; on the paper's
// half-full structures a width of L covers about L/2 live elements.
func (g *Generator) ScanRange(rng *xrand.Rng) (lo, hi core.Key) {
	lo = g.Key(rng)
	return lo, lo + core.Key(g.ScanLen(rng))
}

// ScanRangeAt is ScanRange with the start key drawn at the given phase
// (see KeyAt); the width draw is phase-independent.
func (g *Generator) ScanRangeAt(rng *xrand.Rng, phase float64) (lo, hi core.Key) {
	lo = g.KeyAt(rng, phase)
	return lo, lo + core.Key(g.ScanLen(rng))
}

// Fill populates s to the expected steady-state size: every other key of
// the key space, mirroring the 50% occupancy the paper's key-space sizing
// produces. Returns the number inserted.
func (g *Generator) Fill(c *core.Ctx, s core.Set) int {
	n := 0
	for k := int64(1); k <= g.cfg.KeySpace && n < g.cfg.Size; k += 2 {
		if s.Put(c, core.Key(k), core.Value(k)) {
			n++
		}
	}
	return n
}

// SumPSquared exposes the collision mass of the key distribution for the
// birthday model (1/KeySpace for uniform).
func (g *Generator) SumPSquared() float64 {
	if g.zipf == nil {
		return 1 / float64(g.cfg.KeySpace)
	}
	return g.zipf.SumPSquared()
}
