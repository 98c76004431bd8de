// Package tuner derives a composite structure specification from a
// workload description, closing the loop between the paper's Section 6
// analytic model and the runtime's combinator registry. Where the paper
// uses the birthday-paradox conflict terms to *explain* why blocking
// CSDSs behave practically wait-free, the tuner runs the same equations
// in reverse: given a workload (update ratio, skew, operation mix) and a
// machine (thread count, expected size), it picks the cheapest composite
// whose predicted conflict probability stays below a target and whose
// traversal work is not dominated by partitionable pointer chasing.
//
// The derivation is deterministic: every output is a pure function of
// the explicit Inputs, so tests can pin a derived spec string for
// string (TestDeriveListGridCell) without the answer drifting across
// hosts. GOMAXPROCS enters only as a CLI default in cmd/csdsmodel,
// never inside Derive.
//
// Three parameters are derived (DESIGN.md §7 documents each rule):
//
//   - shard width: the smallest power of two that (a) brings the
//     Section 6 conflict probability under ConflictTarget and (b) leaves
//     no shard whose expected parse phase still dwarfs the fixed
//     per-operation overhead (linear-traversal leaves keep gaining from
//     shorter lists long after conflicts stop mattering). The traversal
//     term only applies to point-dominated mixes: a range op wider than
//     width 64-key blocks visits every shard and pays the merge fan-in
//     wider partitions create (narrower ones pull ⌈window/64⌉+1 shards
//     in key order, whatever the width — block-hashed routing), so
//     scan-heavy workloads keep the width the conflict term alone
//     demands. The gate predates block-hashed routing and is kept as it
//     is pending ROADMAP 5b's re-measurement;
//   - cache capacity: the smallest slot table whose hottest-rank Zipf
//     mass reaches HitMassTarget, quadrupled for direct-map collision
//     slack — emitted only when the mix is skewed, read-heavy,
//     point-read dominated, not think-time limited, and not drifting,
//     because a cache in front of a write-heavy or scan-heavy mix is
//     pure invalidation traffic, one in front of a client-paced mix
//     cannot raise the op rate at all, and one sized from a stationary
//     Zipf head decays as fast as a drifting working set rotates;
//   - streaming page size: cursor pages below width*StreamMinChunk keys
//     make every per-shard refill pull the floor chunk and throw most of
//     it away, so the tuner floors the page hint at that product.
//
// The same cost model powers PredictCell, the composite-aware bridge
// from internal/sim structures to measured harness cells that
// cmd/csdsmodel -validate uses to report sim-vs-live error.
package tuner

import (
	"fmt"
	"math"
	"strings"

	"csds/internal/birthday"
	"csds/internal/core"
	"csds/internal/sim"
	"csds/internal/workload"
	"csds/internal/xrand"
)

// Defaults for the zero values of Inputs.
const (
	DefaultMaxWidth       = 64
	DefaultConflictTarget = 0.01
	DefaultHitMassTarget  = 0.5
)

// minShardSize floors the per-shard element count: below this, a shard
// is mostly fixed overhead and further splitting buys nothing but
// memory and, for windows wider than width blocks, merge fan-in.
const minShardSize = 64

// refHopNs is the nominal single-threaded pointer-hop latency used for
// the duration ratios in the conflict model (the paper's Xeon, sim.
// PaperXeon). Only ratios of durations matter for Equation (1)-(2), so
// the absolute value cancels; it is fixed here for determinism.
const refHopNs = 6.0

// Inputs describes one tuning problem. Leaf, Threads and Size are
// required; zero-valued knobs take the Default* constants.
type Inputs struct {
	// Leaf is the plain algorithm the composite wraps, e.g. "list/lazy".
	// It must be a leaf (no combinator application) with a sim cost
	// model (sim.ModelFor).
	Leaf string
	// Threads is the worker count the composite must absorb.
	Threads int
	// Size is the expected live element count.
	Size int
	// Workload describes the operation mix; it is run through
	// WithDefaults, so a bare named mix from workload.ParseMix works.
	Workload workload.Config
	// MaxWidth caps the shard width (power of two; default 64).
	MaxWidth int
	// ConflictTarget is the acceptable Section 6 conflict probability
	// (default 0.01 — an update should conflict less than 1% of the
	// time, the regime the paper calls practically wait-free).
	ConflictTarget float64
	// HitMassTarget is the fraction of point-read traffic the cache
	// should be able to absorb before a cache is worth its
	// invalidations (default 0.5).
	HitMassTarget float64
}

// Derived is the tuner's answer: a buildable composite spec plus the
// individual parameters and the reasoning behind each (Notes).
type Derived struct {
	// Spec is the composite specification, e.g.
	// "readcache(128,sharded(32,list/lazy))".
	Spec string
	// Width is the derived shard width (1 = no sharding layer).
	Width int
	// CacheSlots is the derived readcache capacity (0 = no cache layer).
	CacheSlots int
	// CacheAdmission is the recommended admission policy when
	// CacheSlots > 0: "tinylfu" for point-skewed mixes, "window" when
	// enough scan traffic flows through the cache to flush it.
	CacheAdmission string
	// PageLen is the cursor page-size hint (keys per page), floored at
	// Width*core.StreamMinChunk when the mix pages; 0 = no cursor ops.
	PageLen int64
	// Conflict is the predicted conflict probability at Width.
	Conflict float64
	// HitMass is the Zipf read mass the cache captures (0 = no cache).
	HitMass float64
	// Notes explain each derived parameter, one human-readable line per
	// decision, in derivation order.
	Notes []string
}

// Derive computes the composite spec for the inputs. It errors on an
// unknown or non-leaf algorithm and on out-of-range inputs; it never
// errors on a merely unusual workload (the notes say what it decided
// and why).
func Derive(in Inputs) (Derived, error) {
	if strings.ContainsAny(in.Leaf, "(),") {
		return Derived{}, fmt.Errorf("tuner: leaf %q is a composite; pass the plain algorithm the tuner should wrap", in.Leaf)
	}
	st, ok := sim.ModelFor(in.Leaf)
	if !ok {
		return Derived{}, fmt.Errorf("tuner: no cost model for algorithm %q (models exist for list, skiplist, hashtable, bst families)", in.Leaf)
	}
	if in.Threads < 1 {
		return Derived{}, fmt.Errorf("tuner: threads %d: want at least 1", in.Threads)
	}
	if in.Size < 1 {
		return Derived{}, fmt.Errorf("tuner: size %d: want at least 1", in.Size)
	}
	maxW := in.MaxWidth
	if maxW <= 0 {
		maxW = DefaultMaxWidth
	}
	maxW = pow2Floor(maxW)
	target := in.ConflictTarget
	if target <= 0 {
		target = DefaultConflictTarget
	}
	hitTarget := in.HitMassTarget
	if hitTarget <= 0 {
		hitTarget = DefaultHitMassTarget
	}
	wl := in.Workload
	wl.Size = in.Size
	wl = wl.WithDefaults()

	var d Derived
	var sumP2 float64
	if wl.ZipfS > 0 {
		sumP2 = xrand.NewZipf(wl.KeySpace, wl.ZipfS).SumPSquared()
	}

	// Shard width, term 1: conflict. Smallest power of two under the
	// target; MaxWidth if none reaches it (the skew floor from the
	// non-uniform term is width-independent — sharding cannot dilute a
	// single hot key).
	wConf := maxW
	for w := 1; w <= maxW; w *= 2 {
		if conflictAt(st, in.Threads, in.Size, w, wl.UpdateRatio, sumP2) <= target {
			wConf = w
			break
		}
	}
	// Term 2: traversal. Keep halving shards while the per-shard parse
	// phase still dominates the fixed per-op overhead and shards stay
	// above the size floor — linear structures (lists) keep gaining
	// here long after conflicts are negligible; logarithmic and
	// constant-hop leaves stop immediately. The term only applies when
	// point operations dominate: a scan or cursor page wider than width
	// 64-key blocks visits every shard and pays the k-way merge fan-in
	// that wider partitions create, so widening a scan-heavy mix of
	// such windows trades a per-shard parse it rarely runs for a merge
	// it always runs. Narrower windows no longer merge — sharded(N,·) walks
	// them block by block, ⌈window/64⌉+1 pulls at any width — so for
	// short-scan mixes the gate is now conservative; it is kept as is
	// pending ROADMAP 5b's re-measurement.
	pointFrac := 1 - wl.ScanRatio - wl.CursorRatio - wl.BatchRatio
	if pointFrac < 0 {
		pointFrac = 0
	}
	wTrav := 1
	if pointFrac >= 0.5 {
		for wTrav*2 <= maxW {
			n := in.Size / wTrav
			if n < 2*minShardSize {
				break
			}
			if st.Hops(n)*refHopNs*st.TraversalFactor <= st.OverheadNs {
				break
			}
			wTrav *= 2
		}
	}
	d.Width = wConf
	if wTrav > d.Width {
		d.Width = wTrav
	}
	for d.Width > 1 && in.Size/d.Width < 2 {
		d.Width /= 2
	}
	d.Conflict = conflictAt(st, in.Threads, in.Size, d.Width, wl.UpdateRatio, sumP2)
	d.Notes = append(d.Notes, fmt.Sprintf(
		"width %d = max(conflict term %d, traversal term %d): predicted conflict %.4g (target %.3g) at %d threads, %d elems/shard",
		d.Width, wConf, wTrav, d.Conflict, target, in.Threads, in.Size/d.Width))
	if pointFrac < 0.5 {
		d.Notes = append(d.Notes, fmt.Sprintf(
			"traversal term skipped: only %.2g of ops are point operations, and range ops wider than width 64-key blocks pay the merge fan-in wider partitions create (gate kept pending re-measurement for narrower ones)", pointFrac))
	}

	// Cache capacity, gated five ways: the mix must be read-heavy
	// (invalidation-on-update otherwise churns the slots), skewed (a
	// uniform mix has no head to cache), point-read dominated (the
	// cache serves Get, not Scan), not think-time paced (a
	// client-limited mix cannot go faster than the client; the cache's
	// fill path only adds cost), and stationary (under drift the hot
	// ranks rotate, so slots sized from the stationary Zipf mass go
	// stale at the drift rate).
	switch {
	case wl.UpdateRatio > 0.25:
		d.Notes = append(d.Notes, fmt.Sprintf("no cache: update ratio %.2g > 0.25 would churn it with invalidations", wl.UpdateRatio))
	case wl.ZipfS <= 0:
		d.Notes = append(d.Notes, "no cache: uniform key popularity has no head worth caching")
	case pointFrac < 0.5:
		d.Notes = append(d.Notes, fmt.Sprintf("no cache: only %.2g of ops are point operations", pointFrac))
	case wl.ThinkNs > 0:
		d.Notes = append(d.Notes, "no cache: the mix is think-time paced — the client bounds the op rate and a cache cannot raise it")
	case wl.DriftPeriod > 0:
		d.Notes = append(d.Notes, "no cache: the working set drifts — a head sized from the stationary zipf mass decays as fast as it fills")
	default:
		z := xrand.NewZipf(wl.KeySpace, wl.ZipfS)
		mass := 0.0
		var c int64
		limit := wl.KeySpace
		if limit > int64(in.Size) {
			limit = int64(in.Size) // a cache larger than the structure is absurd
		}
		for c < limit && mass < hitTarget {
			c++
			mass += z.P(c)
		}
		if mass < hitTarget {
			d.Notes = append(d.Notes, fmt.Sprintf(
				"no cache: zipf %.2g is too shallow — even %d slots capture only %.2g of reads (target %.2g)",
				wl.ZipfS, limit, mass, hitTarget))
		} else {
			// 4x slack: the cache is direct-mapped, so hot ranks collide
			// with each other and with the long tail passing through;
			// 2x left measurable hits on the table in the grid cells.
			d.CacheSlots = pow2Ceil(4 * int(c))
			d.HitMass = mass
			d.CacheAdmission = combinatorAdmitTinyLFU
			reason := "tinylfu admission protects the head from one-touch keys"
			if wl.ScanRatio+wl.CursorRatio > 0.05 {
				d.CacheAdmission = combinatorAdmitWindow
				reason = "window admission keeps scan traffic from flushing the head"
			}
			d.Notes = append(d.Notes, fmt.Sprintf(
				"cache %d slots: hottest %d ranks carry %.2g of the zipf(%.2g) read mass (target %.2g), 4x for direct-map collisions; %s",
				d.CacheSlots, c, mass, wl.ZipfS, hitTarget, reason))
		}
	}

	// Streaming page size: a cursor page smaller than one refill chunk
	// per shard makes every pull overcollect, so floor the hint at
	// width * the per-part chunk floor.
	if wl.CursorRatio > 0 {
		d.PageLen = wl.PageLen
		if floor := int64(d.Width) * core.StreamMinChunk; d.PageLen < floor {
			d.PageLen = floor
			d.Notes = append(d.Notes, fmt.Sprintf(
				"page length %d = width %d x %d-key refill floor (smaller pages pull and discard most of each chunk)",
				d.PageLen, d.Width, core.StreamMinChunk))
		}
	}

	d.Spec = in.Leaf
	if d.Width > 1 {
		d.Spec = fmt.Sprintf("sharded(%d,%s)", d.Width, d.Spec)
	}
	if d.CacheSlots > 0 {
		d.Spec = fmt.Sprintf("readcache(%d,%s)", d.CacheSlots, d.Spec)
	}
	return d, nil
}

// Admission policy names, mirrored from internal/combinator (tuner
// cannot import it: combinator imports core and the dependency must
// stay one-way for csdsd, which links combinator but not the tuner).
// combinator.TestTunerAdmissionNamesMatch pins the mirror.
const (
	combinatorAdmitTinyLFU = "tinylfu"
	combinatorAdmitWindow  = "window"
)

// conflictAt evaluates the Section 6 conflict probability for leaf
// structure st sharded w ways: per-shard durations set the write-phase
// fraction (Equations 1-2), a thread is in a *given* shard's write
// phase fw/w of the time (uniform hashing), the per-shard collision
// term is the leaf's B over the per-shard size, and the shard events
// union. A skewed workload adds the width-independent Poisson floor
// (Equation 6): sharding never dilutes a single hot key.
func conflictAt(st sim.Structure, threads, size, w int, u, sumP2 float64) float64 {
	n := size / w
	if n < 2 {
		n = 2
	}
	parse := st.OverheadNs + st.Hops(n)*refHopNs*st.TraversalFactor
	write := st.WriteNs + 2*refHopNs*st.Locks
	fu := birthday.FUpdate(u, parse+write, parse)
	fw := fu * write / (parse + write)
	if st.SerializedUpdates {
		fw = write / (parse + write)
	}
	p := birthday.PConflict(threads, fw/float64(w), func(k int) float64 { return st.B(k, n) })
	p = 1 - math.Pow(1-p, float64(w))
	if sumP2 > 0 {
		if pz := birthday.PConflict(threads, fw, func(k int) float64 { return birthday.BNonUniform(k, sumP2) }); pz > p {
			p = pz
		}
	}
	return p
}

func pow2Ceil(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}
